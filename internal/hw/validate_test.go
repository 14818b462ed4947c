package hw

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestValidateRejections pins each rejection's message: Validate checks
// cores, then domains, then the distance matrix, and reports the first
// fault it meets.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		edit func(n *NodeSpec)
		want string
	}{
		{"no cores", func(n *NodeSpec) { n.Cores = nil },
			"hw: node KNL-7250-SNC4 has no cores"},
		{"zero frequency", func(n *NodeSpec) { n.CoreFreqGHz = 0 },
			"hw: node KNL-7250-SNC4 has non-positive core frequency"},
		{"core without CPUs", func(n *NodeSpec) { n.Cores[3].CPUs = nil },
			"hw: core 3 has no logical CPUs"},
		{"duplicate CPU across cores", func(n *NodeSpec) { n.Cores[5].CPUs[2] = n.Cores[1].CPUs[3] },
			"hw: logical CPU 205 on both core 1 and core 5"},
		{"core in missing domain", func(n *NodeSpec) { n.Cores[0].Domain = 55 },
			"hw: core 0 references missing domain 55"},
		{"duplicate domain id", func(n *NodeSpec) { n.Domains[6].ID = 5 },
			"hw: duplicate domain id 5"},
		{"zero capacity", func(n *NodeSpec) { n.Domains[2].Mem.Capacity = 0 },
			"hw: domain 2 has non-positive capacity"},
		{"zero bandwidth", func(n *NodeSpec) { n.Domains[7].Mem.StreamBandwidth = 0 },
			"hw: domain 7 has non-positive bandwidth"},
		{"domain lists unknown CPU", func(n *NodeSpec) { n.Domains[1].CPUs = append(n.Domains[1].CPUs, 272) },
			"hw: domain 1 lists unknown CPU 272"},
		{"domain lists negative CPU", func(n *NodeSpec) { n.Domains[0].CPUs = append(n.Domains[0].CPUs, -1) },
			"hw: domain 0 lists unknown CPU -1"},
		{"core renumbered negative", func(n *NodeSpec) { n.Cores[0].CPUs[0] = -4 },
			"hw: domain 0 lists unknown CPU 0"},
		{"missing distance row", func(n *NodeSpec) { n.Distance = n.Distance[:7] },
			"hw: distance matrix has 7 rows for 8 domains"},
		{"non-square distance", func(n *NodeSpec) { n.Distance[3] = n.Distance[3][:6] },
			"hw: distance row 3 has 6 entries for 8 domains"},
		{"zero distance", func(n *NodeSpec) { n.Distance[2][5] = 0 },
			"hw: non-positive distance [2][5]=0"},
	}
	for _, c := range cases {
		n := KNL7250SNC4()
		c.edit(n)
		err := n.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.want)
		}
	}
}

// validateReference is Validate as it was written over maps, kept as the
// oracle for the slice-indexed version.
func validateReference(n *NodeSpec) error {
	if n.NumCores() == 0 {
		return fmt.Errorf("hw: node %s has no cores", n.Name)
	}
	if n.CoreFreqGHz <= 0 {
		return fmt.Errorf("hw: node %s has non-positive core frequency", n.Name)
	}
	cpuSeen := map[int]int{}
	for _, core := range n.Cores {
		if len(core.CPUs) == 0 {
			return fmt.Errorf("hw: core %d has no logical CPUs", core.ID)
		}
		for _, cpu := range core.CPUs {
			if prev, dup := cpuSeen[cpu]; dup {
				return fmt.Errorf("hw: logical CPU %d on both core %d and core %d", cpu, prev, core.ID)
			}
			cpuSeen[cpu] = core.ID
		}
		if _, err := n.Domain(core.Domain); err != nil {
			return fmt.Errorf("hw: core %d references missing domain %d", core.ID, core.Domain)
		}
	}
	domSeen := map[int]bool{}
	for _, d := range n.Domains {
		if domSeen[d.ID] {
			return fmt.Errorf("hw: duplicate domain id %d", d.ID)
		}
		domSeen[d.ID] = true
		if d.Mem.Capacity <= 0 {
			return fmt.Errorf("hw: domain %d has non-positive capacity", d.ID)
		}
		if d.Mem.StreamBandwidth <= 0 {
			return fmt.Errorf("hw: domain %d has non-positive bandwidth", d.ID)
		}
		for _, cpu := range d.CPUs {
			if _, ok := cpuSeen[cpu]; !ok {
				return fmt.Errorf("hw: domain %d lists unknown CPU %d", d.ID, cpu)
			}
		}
	}
	if len(n.Distance) != len(n.Domains) {
		return fmt.Errorf("hw: distance matrix has %d rows for %d domains", len(n.Distance), len(n.Domains))
	}
	for i, row := range n.Distance {
		if len(row) != len(n.Domains) {
			return fmt.Errorf("hw: distance row %d has %d entries for %d domains", i, len(row), len(n.Domains))
		}
		for j, d := range row {
			if d <= 0 {
				return fmt.Errorf("hw: non-positive distance [%d][%d]=%d", i, j, d)
			}
		}
	}
	return nil
}

// Validate accepts and rejects exactly what the map-based reference does,
// with the same message, over randomly corrupted node specs: CPU ids
// renumbered (negative ones included), duplicated or dropped, core and
// domain ids moved, capacities, bandwidths and distances zeroed, and the
// distance matrix truncated.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 4))
	presets := []func() *NodeSpec{
		KNL7250SNC4, KNL7250Quadrant,
		func() *NodeSpec { return dualSocketXeon(3, GiB) },
	}
	outcomes := map[bool]int{}
	for i := 0; i < 3000; i++ {
		n := presets[i%len(presets)]()
		for range 1 + rng.IntN(3) {
			corrupt(rng, n)
		}
		got, want := n.Validate(), validateReference(n)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("spec %d: Validate() = %v, reference %v", i, got, want)
		}
		outcomes[got == nil]++
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("corruptions never exercised both outcomes: %v", outcomes)
	}
}

// corrupt applies one random edit to n.
func corrupt(rng *rand.Rand, n *NodeSpec) {
	cpu := func() int { return rng.IntN(n.NumLogicalCPUs()+8) - 4 }
	switch rng.IntN(9) {
	case 0:
		c := &n.Cores[rng.IntN(len(n.Cores))]
		if len(c.CPUs) > 0 {
			c.CPUs[rng.IntN(len(c.CPUs))] = cpu()
		}
	case 1:
		c := &n.Cores[rng.IntN(len(n.Cores))]
		c.CPUs = append(slices.Clip(c.CPUs), cpu())
	case 2:
		n.Cores[rng.IntN(len(n.Cores))].Domain = rng.IntN(len(n.Domains)+2) - 1
	case 3:
		n.Domains[rng.IntN(len(n.Domains))].ID = rng.IntN(len(n.Domains)+2) - 1
	case 4:
		d := &n.Domains[rng.IntN(len(n.Domains))]
		d.CPUs = append(slices.Clip(d.CPUs), cpu())
	case 5:
		d := &n.Domains[rng.IntN(len(n.Domains))]
		if rng.IntN(2) == 0 {
			d.Mem.Capacity = 0
		} else {
			d.Mem.StreamBandwidth = 0
		}
	case 6:
		if len(n.Distance) > 0 {
			if row := n.Distance[rng.IntN(len(n.Distance))]; len(row) > 0 {
				row[rng.IntN(len(row))] = rng.IntN(3) - 1
			}
		}
	case 7:
		if len(n.Distance) > 0 {
			i := rng.IntN(len(n.Distance))
			n.Distance[i] = n.Distance[i][:rng.IntN(len(n.Distance[i])+1)]
		}
	case 8:
		if rng.IntN(4) == 0 {
			n.Distance = n.Distance[:rng.IntN(len(n.Distance)+1)]
		} else {
			c := &n.Cores[rng.IntN(len(n.Cores))]
			c.CPUs = c.CPUs[:rng.IntN(len(c.CPUs)+1)]
		}
	}
}

// The KNL presets hand every core and domain a window of one backing
// array; an append through one CPU list must not reach its neighbour.
func TestKNLPresetCPUListsAreIndependent(t *testing.T) {
	for _, n := range []*NodeSpec{KNL7250SNC4(), KNL7250Quadrant()} {
		for c, core := range n.Cores {
			want := []int{c, c + 68, c + 136, c + 204}
			if !slices.Equal(core.CPUs, want) {
				t.Fatalf("%s core %d CPUs %v, want %v", n.Name, c, core.CPUs, want)
			}
		}
		for i := range n.Domains {
			d := &n.Domains[i]
			var want []int
			for _, core := range n.Cores {
				if core.Domain == d.ID {
					want = append(want, core.CPUs...)
				}
			}
			if !slices.Equal(d.CPUs, want) {
				t.Fatalf("%s domain %d CPUs %v, want its cores' CPUs %v", n.Name, d.ID, d.CPUs, want)
			}
		}
		before := slices.Clone(n.Cores[1].CPUs)
		_ = append(n.Cores[0].CPUs, 999)
		if !slices.Equal(n.Cores[1].CPUs, before) {
			t.Fatalf("%s: append to core 0's CPUs rewrote core 1's: %v", n.Name, n.Cores[1].CPUs)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
	}
}

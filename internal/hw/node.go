package hw

import (
	"fmt"
	"slices"
)

// DomainSpec is one NUMA domain: a memory device plus the logical CPUs
// attached to it (empty for memory-only domains such as SNC-4 MCDRAM).
type DomainSpec struct {
	ID   int
	Mem  MemDeviceSpec
	CPUs []int // logical CPU ids local to this domain
}

// CoreSpec describes one physical core.
type CoreSpec struct {
	ID     int
	Domain int   // NUMA domain the core belongs to
	CPUs   []int // logical CPUs (hyperthreads) on this core
}

// NodeSpec is the full static description of a compute node.
type NodeSpec struct {
	Name           string
	Mode           ClusterMode
	Cores          []CoreSpec
	Domains        []DomainSpec
	ThreadsPerCore int
	// Distance[i][j] is the relative NUMA distance from domain i to
	// domain j (10 = local, larger = further), mirroring the Linux
	// SLIT convention.
	Distance [][]int
	TLB      TLBSpec
	// CoreFreqGHz is the nominal core frequency; per-core flop rates in
	// the workload models scale with it.
	CoreFreqGHz float64
}

// NumCores returns the number of physical cores.
func (n *NodeSpec) NumCores() int { return len(n.Cores) }

// Domain returns the domain with the given id.
func (n *NodeSpec) Domain(id int) (*DomainSpec, error) {
	for i := range n.Domains {
		if n.Domains[i].ID == id {
			return &n.Domains[i], nil
		}
	}
	return nil, fmt.Errorf("hw: node %s has no NUMA domain %d", n.Name, id)
}

// DomainsOfKind returns the ids of all domains backed by the given memory
// kinds: those of kinds[0] in id order, then those of kinds[1], and so on.
// The result is freshly allocated with its capacity equal to its length.
func (n *NodeSpec) DomainsOfKind(kinds ...MemKind) []int {
	count := 0
	for _, d := range n.Domains {
		if slices.Contains(kinds, d.Mem.Kind) {
			count++
		}
	}
	out := make([]int, 0, count)
	for _, kind := range kinds {
		from := len(out)
		for _, d := range n.Domains {
			if d.Mem.Kind == kind {
				out = append(out, d.ID)
			}
		}
		slices.Sort(out[from:])
	}
	return out
}

// NearestDomain returns, among candidate domain ids, the one with the
// smallest distance from the given domain (ties broken by lower id). It is
// the primitive behind NUMA-aware allocation and the NUMA-aware
// LWK-to-Linux core mapping both kernels perform.
func (n *NodeSpec) NearestDomain(from int, candidates []int) (int, error) {
	if len(candidates) == 0 {
		return 0, fmt.Errorf("hw: NearestDomain with no candidates")
	}
	if from < 0 || from >= len(n.Distance) {
		return 0, fmt.Errorf("hw: domain %d out of range", from)
	}
	best, bestDist := -1, int(^uint(0)>>1)
	for _, c := range candidates {
		if c < 0 || c >= len(n.Distance[from]) {
			return 0, fmt.Errorf("hw: candidate domain %d out of range", c)
		}
		if d := n.Distance[from][c]; d < bestDist || (d == bestDist && c < best) {
			best, bestDist = c, d
		}
	}
	return best, nil
}

// Validate checks internal consistency of the spec: every CPU belongs to
// exactly one core and one domain, domains reference existing CPUs, and the
// distance matrix is square with zero-free diagonal-local entries.
func (n *NodeSpec) Validate() error {
	if n.NumCores() == 0 {
		return fmt.Errorf("hw: node %s has no cores", n.Name)
	}
	if n.CoreFreqGHz <= 0 {
		return fmt.Errorf("hw: node %s has non-positive core frequency", n.Name)
	}
	// coreOf[cpu-lo] is 1 + the id of the core owning cpu, 0 if none:
	// logical CPU ids are dense on every real node, so one slice spanning
	// [lo, hi] replaces a map keyed by CPU id.
	lo, hi := 0, -1
	for _, core := range n.Cores {
		for _, cpu := range core.CPUs {
			if hi < lo {
				lo, hi = cpu, cpu
			}
			lo, hi = min(lo, cpu), max(hi, cpu)
		}
	}
	coreOf := make([]int, hi-lo+1)
	for _, core := range n.Cores {
		if len(core.CPUs) == 0 {
			return fmt.Errorf("hw: core %d has no logical CPUs", core.ID)
		}
		for _, cpu := range core.CPUs {
			if prev := coreOf[cpu-lo]; prev != 0 {
				return fmt.Errorf("hw: logical CPU %d on both core %d and core %d", cpu, prev-1, core.ID)
			}
			coreOf[cpu-lo] = core.ID + 1
		}
		if _, err := n.Domain(core.Domain); err != nil {
			return fmt.Errorf("hw: core %d references missing domain %d", core.ID, core.Domain)
		}
	}
	for i, d := range n.Domains {
		for _, prev := range n.Domains[:i] {
			if prev.ID == d.ID {
				return fmt.Errorf("hw: duplicate domain id %d", d.ID)
			}
		}
		if d.Mem.Capacity <= 0 {
			return fmt.Errorf("hw: domain %d has non-positive capacity", d.ID)
		}
		if d.Mem.StreamBandwidth <= 0 {
			return fmt.Errorf("hw: domain %d has non-positive bandwidth", d.ID)
		}
		for _, cpu := range d.CPUs {
			if cpu < lo || cpu > hi || coreOf[cpu-lo] == 0 {
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

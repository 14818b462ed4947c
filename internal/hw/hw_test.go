package hw

import (
	"testing"
	"testing/quick"
)

func TestKNLSNC4Shape(t *testing.T) {
	n := KNL7250SNC4()
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if n.NumCores() != 68 {
		t.Fatalf("cores = %d, want 68", n.NumCores())
	}
	if n.NumLogicalCPUs() != 272 {
		t.Fatalf("logical CPUs = %d, want 272", n.NumLogicalCPUs())
	}
	if len(n.Domains) != 8 {
		t.Fatalf("domains = %d, want 8", len(n.Domains))
	}
	if n.Mode != SNC4 {
		t.Fatalf("mode = %v", n.Mode)
	}
}

func TestKNLSNC4Capacities(t *testing.T) {
	n := KNL7250SNC4()
	if got := n.TotalCapacity(MCDRAM); got != 16*GiB {
		t.Fatalf("MCDRAM capacity = %d, want 16 GiB", got)
	}
	if got := n.TotalCapacity(DDR4); got != 96*GiB {
		t.Fatalf("DDR4 capacity = %d, want 96 GiB", got)
	}
}

func TestKNLSNC4DomainKinds(t *testing.T) {
	n := KNL7250SNC4()
	ddr := n.DomainsOfKind(DDR4)
	mc := n.DomainsOfKind(MCDRAM)
	if len(ddr) != 4 || len(mc) != 4 {
		t.Fatalf("ddr=%v mcdram=%v", ddr, mc)
	}
	for i, id := range ddr {
		if id != i {
			t.Fatalf("DDR domains %v, want 0-3", ddr)
		}
	}
	for i, id := range mc {
		if id != 4+i {
			t.Fatalf("MCDRAM domains %v, want 4-7", mc)
		}
	}
	// MCDRAM domains are core-less in SNC-4.
	for _, id := range mc {
		d, err := n.Domain(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.CPUs) != 0 {
			t.Fatalf("MCDRAM domain %d has CPUs %v", id, d.CPUs)
		}
	}
}

func TestKNLSNC4MCDRAMFasterButSlower(t *testing.T) {
	// MCDRAM must have higher bandwidth and higher latency than DDR4 —
	// the KNL inversion.
	n := KNL7250SNC4()
	ddr, _ := n.Domain(0)
	mc, _ := n.Domain(4)
	if mc.Mem.StreamBandwidth <= ddr.Mem.StreamBandwidth {
		t.Fatal("MCDRAM bandwidth not higher than DDR4")
	}
	if mc.Mem.LoadLatency <= ddr.Mem.LoadLatency {
		t.Fatal("MCDRAM latency not higher than DDR4")
	}
}

func TestCPUNumbering(t *testing.T) {
	n := KNL7250SNC4()
	core, err := n.CoreOfCPU(0)
	if err != nil || core.ID != 0 {
		t.Fatalf("CoreOfCPU(0) = %v, %v", core, err)
	}
	// Hyperthread sibling of core 5 at 5+68.
	core, err = n.CoreOfCPU(73)
	if err != nil || core.ID != 5 {
		t.Fatalf("CoreOfCPU(73) = %v, %v", core, err)
	}
	if _, err := n.CoreOfCPU(272); err == nil {
		t.Fatal("CoreOfCPU(272) did not error")
	}
}

func TestDomainOfCPU(t *testing.T) {
	n := KNL7250SNC4()
	// Core 0 is in quadrant 0; core 17 in quadrant 1.
	if d, _ := n.DomainOfCPU(0); d != 0 {
		t.Fatalf("DomainOfCPU(0) = %d", d)
	}
	if d, _ := n.DomainOfCPU(17); d != 1 {
		t.Fatalf("DomainOfCPU(17) = %d", d)
	}
	if d, _ := n.DomainOfCPU(67); d != 3 {
		t.Fatalf("DomainOfCPU(67) = %d", d)
	}
}

func TestNearestDomainPrefersOwnQuadrantMCDRAM(t *testing.T) {
	n := KNL7250SNC4()
	// From DDR quadrant 2, the nearest MCDRAM domain must be 6.
	got, err := n.NearestDomain(2, n.DomainsOfKind(MCDRAM))
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("nearest MCDRAM to quadrant 2 = %d, want 6", got)
	}
}

func TestNearestDomainErrors(t *testing.T) {
	n := KNL7250SNC4()
	if _, err := n.NearestDomain(0, nil); err == nil {
		t.Fatal("no candidates: want error")
	}
	if _, err := n.NearestDomain(99, []int{0}); err == nil {
		t.Fatal("bad from domain: want error")
	}
	if _, err := n.NearestDomain(0, []int{99}); err == nil {
		t.Fatal("bad candidate: want error")
	}
}

func TestQuadrantPreset(t *testing.T) {
	n := KNL7250Quadrant()
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(n.Domains) != 2 {
		t.Fatalf("domains = %d, want 2", len(n.Domains))
	}
	if n.TotalCapacity(MCDRAM) != 16*GiB || n.TotalCapacity(DDR4) != 96*GiB {
		t.Fatal("quadrant capacities wrong")
	}
	if n.NumLogicalCPUs() != 272 {
		t.Fatalf("logical CPUs = %d", n.NumLogicalCPUs())
	}
}

func TestValidateCatchesDuplicateCPU(t *testing.T) {
	n := KNL7250SNC4()
	n.Cores[1].CPUs[0] = n.Cores[0].CPUs[0] // duplicate CPU id
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate CPU")
	}
}

func TestValidateCatchesBadDistance(t *testing.T) {
	n := KNL7250SNC4()
	n.Distance = n.Distance[:3]
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted truncated distance matrix")
	}
}

func TestValidateCatchesMissingDomain(t *testing.T) {
	n := KNL7250SNC4()
	n.Cores[0].Domain = 55
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted dangling domain reference")
	}
}

func TestPageSizeStrings(t *testing.T) {
	if Page4K.String() != "4KiB" || Page2M.String() != "2MiB" || Page1G.String() != "1GiB" {
		t.Fatal("page size strings")
	}
	if !Page4K.Valid() || PageSize(12345).Valid() {
		t.Fatal("page size validity")
	}
}

func TestMemKindStrings(t *testing.T) {
	if DDR4.String() != "DDR4" || MCDRAM.String() != "MCDRAM" {
		t.Fatal("mem kind strings")
	}
	if SNC4.String() != "SNC-4" || Quadrant.String() != "Quadrant" {
		t.Fatal("cluster mode strings")
	}
}

func TestTLBReach(t *testing.T) {
	tlb := knlTLB()
	if tlb.Reach(Page4K) != int64(tlb.Entries4K)*4*KiB {
		t.Fatal("4K reach")
	}
	if tlb.Reach(Page2M) != int64(tlb.Entries2M)*2*MiB {
		t.Fatal("2M reach")
	}
	if tlb.Reach(PageSize(999)) != 0 {
		t.Fatal("invalid page size reach")
	}
}

func TestTLBMissRateZeroInsideReach(t *testing.T) {
	tlb := knlTLB()
	if r := tlb.MissRate(tlb.Reach(Page2M), Page2M); r != 0 {
		t.Fatalf("miss rate inside reach = %v", r)
	}
	if r := tlb.MissRate(0, Page2M); r != 0 {
		t.Fatal("miss rate for empty set")
	}
}

func TestTLBMissRateGrowsOutsideReach(t *testing.T) {
	tlb := knlTLB()
	small := tlb.MissRate(2*tlb.Reach(Page4K), Page4K)
	big := tlb.MissRate(100*tlb.Reach(Page4K), Page4K)
	if small <= 0 || big <= small {
		t.Fatalf("miss rates not monotone: %v then %v", small, big)
	}
}

// pureMix is the page-size mix of a working set mapped entirely with p.
func pureMix(p PageSize) (frac [len(PageSizes)]float64) {
	frac[p.Index()] = 1
	return frac
}

func TestTLBLargePagesBeatSmallPages(t *testing.T) {
	// For a 4 GiB working set, 2 MiB pages must deliver strictly higher
	// effective bandwidth than 4 KiB pages, and 1 GiB at least as high
	// as 2 MiB. This is the mechanism behind the LWK large-page win.
	n := KNL7250SNC4()
	dev := n.Domains[0].Mem
	ws := int64(4 * GiB)
	bw4k := n.TLB.EffectiveBandwidth(dev, ws, pureMix(Page4K))
	bw2m := n.TLB.EffectiveBandwidth(dev, ws, pureMix(Page2M))
	bw1g := n.TLB.EffectiveBandwidth(dev, ws, pureMix(Page1G))
	if !(bw4k < bw2m && bw2m <= bw1g) {
		t.Fatalf("bandwidth ordering violated: 4K=%v 2M=%v 1G=%v", bw4k, bw2m, bw1g)
	}
	if bw1g > dev.StreamBandwidth {
		t.Fatalf("effective bandwidth %v exceeds stream peak %v", bw1g, dev.StreamBandwidth)
	}
}

func TestTLBEffectiveBandwidthEdges(t *testing.T) {
	n := KNL7250SNC4()
	dev := n.Domains[0].Mem
	if bw := n.TLB.EffectiveBandwidth(dev, 0, pureMix(Page4K)); bw != dev.StreamBandwidth {
		t.Fatal("zero working set should return peak bandwidth")
	}
	if bw := n.TLB.EffectiveBandwidth(dev, GiB, [len(PageSizes)]float64{}); bw != dev.StreamBandwidth {
		t.Fatal("empty mix should return peak bandwidth")
	}
}

// Property: effective bandwidth never exceeds stream bandwidth and is
// always positive, for any working set and any pure page-size mix.
func TestEffectiveBandwidthBoundsProperty(t *testing.T) {
	n := KNL7250SNC4()
	dev := n.Domains[0].Mem
	sizes := []PageSize{Page4K, Page2M, Page1G}
	check := func(wsMiB uint16, pick uint8) bool {
		ws := int64(wsMiB) * MiB
		p := sizes[int(pick)%len(sizes)]
		bw := n.TLB.EffectiveBandwidth(dev, ws, pureMix(p))
		return bw > 0 && bw <= dev.StreamBandwidth+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDualSocketXeonPreset(t *testing.T) {
	n := dualSocketXeon(24, 192*GiB)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.NumCores() != 48 || n.NumLogicalCPUs() != 96 {
		t.Fatalf("cores %d, cpus %d", n.NumCores(), n.NumLogicalCPUs())
	}
	if len(n.DomainsOfKind(MCDRAM)) != 0 {
		t.Fatal("a Xeon has no MCDRAM")
	}
	if n.TotalCapacity(DDR4) != 384*GiB {
		t.Fatalf("capacity %d", n.TotalCapacity(DDR4))
	}
	// Defaults kick in for non-positive arguments.
	d := dualSocketXeon(0, 0)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestXeonWorksWithAllocator(t *testing.T) {
	// The memory substrate is node-agnostic: a Xeon node allocates and
	// maps exactly like a KNL one.
	n := dualSocketXeon(24, 192*GiB)
	if n.Distance[0][1] != 21 {
		t.Fatal("cross-socket distance")
	}
	nearest, err := n.NearestDomain(0, []int{0, 1})
	if err != nil || nearest != 0 {
		t.Fatalf("nearest: %d, %v", nearest, err)
	}
}

// dualSocketXeon returns a conventional two-socket server node: two DDR4
// NUMA domains with their cores, no on-package memory. The tests use it to
// show that the node model is parametric: nothing in it is KNL-specific.
func dualSocketXeon(coresPerSocket int, memPerSocket int64) *NodeSpec {
	if coresPerSocket <= 0 {
		coresPerSocket = 24
	}
	if memPerSocket <= 0 {
		memPerSocket = 192 * GiB
	}
	n := &NodeSpec{
		Name:           "dual-xeon",
		Mode:           Quadrant, // single-level NUMA, no sub-clustering
		ThreadsPerCore: 2,
		TLB: TLBSpec{
			Entries4K:       1536,
			Entries2M:       1536,
			Entries1G:       16,
			MissCostNs:      60,
			AccessesPerByte: 1.0 / 64.0,
		},
		CoreFreqGHz: 2.4,
	}
	total := 2 * coresPerSocket
	for c := 0; c < total; c++ {
		socket := c / coresPerSocket
		core := CoreSpec{ID: c, Domain: socket}
		for t := 0; t < n.ThreadsPerCore; t++ {
			core.CPUs = append(core.CPUs, c+t*total)
		}
		n.Cores = append(n.Cores, core)
	}
	for s := 0; s < 2; s++ {
		dom := DomainSpec{
			ID: s,
			Mem: MemDeviceSpec{
				Kind:            DDR4,
				Capacity:        memPerSocket,
				StreamBandwidth: 110,
				LoadLatency:     90,
			},
		}
		for _, core := range n.Cores {
			if core.Domain == s {
				dom.CPUs = append(dom.CPUs, core.CPUs...)
			}
		}
		n.Domains = append(n.Domains, dom)
	}
	n.Distance = [][]int{{10, 21}, {21, 10}}
	return n
}

package mem

import (
	"testing"

	"mklite/internal/hw"
)

// lwkPolicy mimics an LWK mapping: MCDRAM first, spill to DDR, large pages,
// upfront.
func lwkPolicy() Policy {
	return Policy{
		Domains: []int{4, 5, 6, 7, 0, 1, 2, 3},
		MaxPage: hw.Page1G,
	}
}

func TestMapUpfrontBacksImmediately(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	v, err := as.Map(8*hw.GiB, VMAAnon, lwkPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if v.Populated != 8*hw.GiB {
		t.Fatalf("populated = %d", v.Populated)
	}
	if v.DemandActive {
		t.Fatal("upfront mapping marked demand-active")
	}
	// Touching an upfront mapping is free.
	res := as.Touch(v, 0, 8*hw.GiB)
	if res.Faults != 0 {
		t.Fatalf("faults on upfront mapping: %d", res.Faults)
	}
}

func TestMapMCDRAMFirstThenSpill(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	// 20 GiB > 16 GiB MCDRAM: must spill into DDR4.
	v, err := as.Map(20*hw.GiB, VMAAnon, lwkPolicy())
	if err != nil {
		t.Fatal(err)
	}
	kinds := as.BytesByKind()
	if kinds[hw.MCDRAM] != 16*hw.GiB {
		t.Fatalf("MCDRAM bytes = %d, want all 16 GiB", kinds[hw.MCDRAM])
	}
	if kinds[hw.DDR4] != 4*hw.GiB {
		t.Fatalf("DDR4 bytes = %d, want 4 GiB spill", kinds[hw.DDR4])
	}
	_ = v
}

func TestMapUsesLargePages(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	if _, err := as.Map(4*hw.GiB, VMAAnon, lwkPolicy()); err != nil {
		t.Fatal(err)
	}
	var huge, total int64
	for _, v := range as.VMAs() {
		for _, b := range v.Backings {
			if b.Page == hw.Page1G && as.kindOfDomain(b.Ext.Domain) == hw.MCDRAM {
				huge += b.Ext.Size
			}
			total += b.Ext.Size
		}
	}
	if total != 4*hw.GiB || huge != total {
		t.Fatalf("%d of %d bytes on 1GiB MCDRAM pages, want all 4 GiB", huge, total)
	}
}

func TestMapSmallUsesSmallPages(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	v, err := as.Map(64*hw.KiB, VMAAnon, Policy{Domains: []int{0}, MaxPage: hw.Page1G})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range v.Backings {
		if b.Page != hw.Page4K {
			t.Fatalf("64KiB mapping got %v pages", b.Page)
		}
	}
}

func TestMapRoundsToPageSize(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	v, err := as.Map(100, VMAAnon, Policy{Domains: []int{0}, MaxPage: hw.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	if v.Size != int64(hw.Page4K) {
		t.Fatalf("size = %d, want one page", v.Size)
	}
}

func TestMapErrors(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	if _, err := as.Map(0, VMAAnon, lwkPolicy()); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := as.Map(4096, VMAAnon, Policy{}); err == nil {
		t.Fatal("empty domains accepted")
	}
	if _, err := as.Map(4096, VMAAnon, Policy{Domains: []int{0}, MaxPage: 12345}); err == nil {
		t.Fatal("bad MaxPage accepted")
	}
}

func TestMapRigidFailsWhenShort(t *testing.T) {
	// mOS-style rigid mapping: no fallback, so mapping more than the
	// allowed domains hold must fail and leak nothing.
	phys := newKNLPhys()
	as := NewAddrSpace(phys)
	_, err := as.Map(5*hw.GiB, VMAAnon, Policy{Domains: []int{4}, MaxPage: hw.Page1G})
	if err == nil {
		t.Fatal("rigid over-map succeeded")
	}
	if phys.UsedBytes(4) != 0 {
		t.Fatalf("failed map leaked %d bytes", phys.UsedBytes(4))
	}
}

func TestMapFallbackDemand(t *testing.T) {
	// McKernel-style: upfront if possible, degrade to demand paging when
	// the preferred domain cannot back everything.
	as := NewAddrSpace(newKNLPhys())
	v, err := as.Map(5*hw.GiB, VMAAnon, Policy{
		Domains:        []int{4},
		MaxPage:        hw.Page1G,
		FallbackDemand: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.DemandActive {
		t.Fatal("fallback mapping not demand-active")
	}
	if v.Populated != 4*hw.GiB {
		t.Fatalf("populated = %d, want the 4 GiB that fit", v.Populated)
	}
	// Touching past the populated region faults, but domain 4 is full:
	// no further domains in policy, so the touch populates nothing.
	res := as.Touch(v, 0, 5*hw.GiB)
	if res.BytesPopulated != 0 {
		t.Fatalf("touch populated %d from exhausted domain", res.BytesPopulated)
	}
}

func TestDemandMappingFaultsOnTouch(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	v, err := as.Map(16*hw.MiB, VMAAnon, Policy{Domains: []int{0}, MaxPage: hw.Page4K, Demand: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Populated != 0 {
		t.Fatal("demand mapping populated at map time")
	}
	res := as.Touch(v, 0, 8*hw.MiB)
	wantFaults := 8 * hw.MiB / int64(hw.Page4K)
	if res.Faults != wantFaults {
		t.Fatalf("faults = %d, want %d", res.Faults, wantFaults)
	}
	if v.Populated != 8*hw.MiB {
		t.Fatalf("populated = %d", v.Populated)
	}
	// Touching the same range again is free.
	res = as.Touch(v, 0, 8*hw.MiB)
	if res.Faults != 0 {
		t.Fatalf("re-touch faulted %d times", res.Faults)
	}
	if as.TotalFaults != wantFaults {
		t.Fatalf("TotalFaults = %d", as.TotalFaults)
	}
}

func TestTouchWithPageOverride(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	v, _ := as.Map(8*hw.MiB, VMAAnon, Policy{Domains: []int{0}, MaxPage: hw.Page2M, Demand: true})
	// Override down to 4K: fault count must reflect 4K granularity.
	res := as.TouchWithPage(v, 0, 2*hw.MiB, hw.Page4K)
	if res.Faults != 512 {
		t.Fatalf("faults = %d, want 512", res.Faults)
	}
	// Remaining region at policy page size: 2MiB granules.
	res = as.Touch(v, 0, 4*hw.MiB)
	if res.Faults != 1 {
		t.Fatalf("faults = %d, want 1 2MiB fault", res.Faults)
	}
}

func TestUnmapReturnsMemory(t *testing.T) {
	phys := newKNLPhys()
	as := NewAddrSpace(phys)
	v, err := as.Map(2*hw.GiB, VMAAnon, lwkPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(v); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 8; d++ {
		if phys.UsedBytes(d) != 0 {
			t.Fatalf("domain %d still has %d used", d, phys.UsedBytes(d))
		}
	}
	if err := as.Unmap(v); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

func TestReleaseAll(t *testing.T) {
	phys := newKNLPhys()
	as := NewAddrSpace(phys)
	for i := 0; i < 4; i++ {
		if _, err := as.Map(1*hw.GiB, VMAAnon, lwkPolicy()); err != nil {
			t.Fatal(err)
		}
	}
	as.ReleaseAll()
	if n := len(as.VMAs()); n != 0 {
		t.Fatalf("ReleaseAll left %d areas", n)
	}
	for d := 0; d < 8; d++ {
		if phys.UsedBytes(d) != 0 {
			t.Fatalf("domain %d leaked", d)
		}
	}
}

func TestTwoSpacesCompeteForMCDRAM(t *testing.T) {
	// Two "ranks" on one node: the first grabs MCDRAM, the second is
	// pushed to DDR4 — upfront division of memory, the mOS default.
	phys := newKNLPhys()
	a := NewAddrSpace(phys)
	b := NewAddrSpace(phys)
	if _, err := a.Map(16*hw.GiB, VMAAnon, lwkPolicy()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Map(8*hw.GiB, VMAAnon, lwkPolicy()); err != nil {
		t.Fatal(err)
	}
	if a.BytesByKind()[hw.MCDRAM] != 16*hw.GiB {
		t.Fatal("first space did not get all MCDRAM")
	}
	if b.BytesByKind()[hw.MCDRAM] != 0 {
		t.Fatal("second space got MCDRAM that should be exhausted")
	}
}

func TestDemandSharesMCDRAMBetweenSpaces(t *testing.T) {
	// With demand paging and interleaved touching, both ranks end up
	// with a share of MCDRAM — the McKernel CCS-QCD advantage.
	phys := newKNLPhys()
	a := NewAddrSpace(phys)
	b := NewAddrSpace(phys)
	pol := Policy{Domains: []int{4, 5, 6, 7, 0, 1, 2, 3}, MaxPage: hw.Page2M, Demand: true}
	va, _ := a.Map(12*hw.GiB, VMAAnon, pol)
	vb, _ := b.Map(12*hw.GiB, VMAAnon, pol)
	// Interleave touches in 1 GiB strides.
	for off := int64(0); off < 12*hw.GiB; off += hw.GiB {
		a.Touch(va, 0, off+hw.GiB)
		b.Touch(vb, 0, off+hw.GiB)
	}
	am := a.BytesByKind()[hw.MCDRAM]
	bm := b.BytesByKind()[hw.MCDRAM]
	if am == 0 || bm == 0 {
		t.Fatalf("demand paging did not share MCDRAM: a=%d b=%d", am, bm)
	}
	if am+bm != 16*hw.GiB {
		t.Fatalf("MCDRAM not fully used: %d", am+bm)
	}
}

func TestTrimPartialExtent(t *testing.T) {
	phys := newKNLPhys()
	as := NewAddrSpace(phys)
	v, _ := as.Map(8*hw.MiB, VMAAnon, Policy{Domains: []int{0}, MaxPage: hw.Page2M, Demand: true})
	as.Touch(v, 0, 8*hw.MiB)
	freed := as.Trim(v, 3*hw.MiB)
	// Must free down to the next 2MiB boundary above 3MiB => keep 4MiB.
	if v.Populated != 4*hw.MiB {
		t.Fatalf("populated after trim = %d", v.Populated)
	}
	if freed != 4*hw.MiB {
		t.Fatalf("freed = %d", freed)
	}
	if err := phys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Re-touch refaults the trimmed region.
	res := as.Touch(v, 0, 8*hw.MiB)
	if res.Faults == 0 {
		t.Fatal("no refaults after trim")
	}
}

func TestVMAKindStrings(t *testing.T) {
	kinds := []VMAKind{VMAAnon, VMAHeap, VMAStack, VMABSS, VMAText, VMAShared, VMADevice}
	want := []string{"anon", "heap", "stack", "bss", "text", "shared", "device"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("kind %d = %q", i, k.String())
		}
	}
}

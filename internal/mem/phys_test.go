package mem

import (
	"testing"
	"testing/quick"

	"mklite/internal/hw"
	"mklite/internal/sim"
)

func newKNLPhys() *Phys { return NewPhys(hw.KNL7250SNC4()) }

func TestPhysInitialState(t *testing.T) {
	p := newKNLPhys()
	if got := p.FreeBytes(0); got != 24*hw.GiB {
		t.Fatalf("domain 0 free = %d", got)
	}
	if got := p.FreeBytes(4); got != 4*hw.GiB {
		t.Fatalf("domain 4 free = %d", got)
	}
	if p.FreeBytes(99) != 0 || p.Capacity(99) != 0 {
		t.Fatal("unknown domain should report zero")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPhysAllocFree(t *testing.T) {
	p := newKNLPhys()
	e, err := p.Alloc(0, 1*hw.GiB, int64(hw.Page1G))
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != 1*hw.GiB || e.Start%int64(hw.Page1G) != 0 {
		t.Fatalf("bad extent %+v", e)
	}
	if p.UsedBytes(0) != 1*hw.GiB {
		t.Fatalf("used = %d", p.UsedBytes(0))
	}
	p.Free(e)
	if p.UsedBytes(0) != 0 {
		t.Fatalf("used after free = %d", p.UsedBytes(0))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPhysAllocAlignment(t *testing.T) {
	p := newKNLPhys()
	// Force misalignment: grab 4 KiB first, then ask for a 2 MiB aligned
	// extent.
	if _, err := p.Alloc(0, 4096, 4096); err != nil {
		t.Fatal(err)
	}
	e, err := p.Alloc(0, int64(hw.Page2M), int64(hw.Page2M))
	if err != nil {
		t.Fatal(err)
	}
	if e.Start%int64(hw.Page2M) != 0 {
		t.Fatalf("unaligned extent at %#x", e.Start)
	}
}

func TestPhysAllocErrors(t *testing.T) {
	p := newKNLPhys()
	if _, err := p.Alloc(0, 0, 4096); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := p.Alloc(0, 4096, 3); err == nil {
		t.Fatal("non-power-of-two alignment accepted")
	}
	if _, err := p.Alloc(42, 4096, 4096); err == nil {
		t.Fatal("unknown domain accepted")
	}
	if _, err := p.Alloc(4, 5*hw.GiB, 4096); err == nil {
		t.Fatal("oversize alloc accepted")
	}
}

func TestPhysExhaustion(t *testing.T) {
	p := newKNLPhys()
	// MCDRAM domain 4 holds exactly 4 GiB.
	var got []Extent
	for i := 0; i < 4; i++ {
		e, err := p.Alloc(4, 1*hw.GiB, int64(hw.Page1G))
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		got = append(got, e)
	}
	if _, err := p.Alloc(4, 4096, 4096); err == nil {
		t.Fatal("allocation from exhausted domain succeeded")
	}
	p.FreeAll(got)
	if p.FreeBytes(4) != 4*hw.GiB {
		t.Fatal("free bytes not restored")
	}
}

func TestPhysCoalescing(t *testing.T) {
	p := newKNLPhys()
	a, _ := p.Alloc(0, 1*hw.GiB, int64(hw.Page1G))
	b, _ := p.Alloc(0, 1*hw.GiB, int64(hw.Page1G))
	c, _ := p.Alloc(0, 1*hw.GiB, int64(hw.Page1G))
	// Free in an order that requires both-side coalescing.
	p.Free(a)
	p.Free(c)
	p.Free(b)
	if got := p.LargestFree(0); got != 24*hw.GiB {
		t.Fatalf("largest free after coalesce = %d, want full domain", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPhysDoubleFreePanics(t *testing.T) {
	p := newKNLPhys()
	e, _ := p.Alloc(0, 4096, 4096)
	p.Free(e)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	p.Free(e)
}

func TestPhysAllocUpToSplits(t *testing.T) {
	p := newKNLPhys()
	// Fragment domain 4 so no single 4 GiB extent exists, then ask for
	// more than the largest chunk.
	pins, err := p.Fragment(4, 4096, 1*hw.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(pins) == 0 {
		t.Fatal("Fragment pinned nothing")
	}
	if p.LargestFree(4) >= 4*hw.GiB {
		t.Fatal("fragmentation did not reduce largest free block")
	}
	exts, got := p.AllocUpTo(4, 3*hw.GiB, int64(hw.Page2M))
	if got < 2*hw.GiB {
		t.Fatalf("AllocUpTo got only %d", got)
	}
	if len(exts) < 2 {
		t.Fatalf("AllocUpTo returned %d extents, expected a split", len(exts))
	}
	for _, e := range exts {
		if e.Start%int64(hw.Page2M) != 0 || e.Size%int64(hw.Page2M) != 0 {
			t.Fatalf("extent %+v not 2MiB granular", e)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPhysAllocUpToPartial(t *testing.T) {
	p := newKNLPhys()
	_, got := p.AllocUpTo(4, 100*hw.GiB, int64(hw.Page2M))
	if got != 4*hw.GiB {
		t.Fatalf("AllocUpTo from 4GiB domain got %d", got)
	}
}

func TestFragmentRejectsBadArgs(t *testing.T) {
	p := newKNLPhys()
	if _, err := p.Fragment(0, 0, 100); err == nil {
		t.Fatal("holeSize 0 accepted")
	}
	if _, err := p.Fragment(0, 100, 50); err == nil {
		t.Fatal("stride < holeSize accepted")
	}
	if _, err := p.Fragment(77, 4096, 1*hw.GiB); err == nil {
		t.Fatal("unknown domain accepted")
	}
}

func TestFragmentCapsLargePages(t *testing.T) {
	// The McKernel late-boot story: after fragmentation, 1 GiB pages are
	// no longer obtainable even though most memory is free.
	p := newKNLPhys()
	if _, err := p.Fragment(0, int64(hw.Page4K), 512*hw.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(0, int64(hw.Page1G), int64(hw.Page1G)); err == nil {
		t.Fatal("1GiB page allocated from fragmented domain")
	}
	// 2 MiB pages still work.
	if _, err := p.Alloc(0, int64(hw.Page2M), int64(hw.Page2M)); err != nil {
		t.Fatalf("2MiB alloc failed on fragmented domain: %v", err)
	}
}

// Property test: random alloc/free sequences keep the allocator invariants
// and conserve bytes.
func TestPhysRandomOpsInvariant(t *testing.T) {
	check := func(seed uint64, steps uint8) bool {
		p := newKNLPhys()
		rng := sim.NewRNG(seed)
		var live []Extent
		var liveSum int64
		for i := 0; i < int(steps); i++ {
			if len(live) == 0 || rng.Bool(0.6) {
				dom := rng.Intn(8)
				size := int64(1+rng.Intn(1024)) * int64(hw.Page4K)
				e, err := p.Alloc(dom, size, int64(hw.Page4K))
				if err == nil {
					live = append(live, e)
					liveSum += e.Size
				}
			} else {
				i := rng.Intn(len(live))
				e := live[i]
				live = append(live[:i], live[i+1:]...)
				liveSum -= e.Size
				p.Free(e)
			}
			if p.CheckInvariants() != nil {
				return false
			}
		}
		var used int64
		for d := 0; d < 8; d++ {
			used += p.UsedBytes(d)
		}
		return used == liveSum
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLargestFreeUnknownDomain(t *testing.T) {
	p := newKNLPhys()
	if p.LargestFree(99) != 0 {
		t.Fatal("unknown domain largest free != 0")
	}
}

func TestExtentEnd(t *testing.T) {
	e := Extent{Domain: 0, Start: 100, Size: 50}
	if e.End() != 150 {
		t.Fatalf("End = %d", e.End())
	}
}

// BenchmarkPhysAlloc measures the extent allocator on the patterns node
// setup drives: a DDR domain fragmented the way Linux's boot leaves it, then
// first-fit Allocs that split free ranges (aligned 1 GiB, 2 MiB and 4 KiB
// requests) and a multi-extent AllocUpTo spill, all freed again so every
// iteration starts from the same free list.
func BenchmarkPhysAlloc(b *testing.B) {
	p := newKNLPhys()
	if _, err := p.Fragment(0, 64*hw.MiB, 3*hw.GiB); err != nil {
		b.Fatal(err)
	}
	got := make([]Extent, 0, 64)
	b.ReportAllocs()
	for b.Loop() {
		got = got[:0]
		for _, r := range []struct{ size, align int64 }{
			{hw.GiB, int64(hw.Page1G)},
			{6 * hw.MiB, int64(hw.Page2M)},
			{12 * hw.KiB, int64(hw.Page4K)},
		} {
			for range 8 {
				e, err := p.Alloc(0, r.size, r.align)
				if err != nil {
					b.Fatal(err)
				}
				got = append(got, e)
			}
		}
		exts, _ := p.AllocUpTo(0, 12*hw.GiB, int64(hw.Page2M))
		got = append(got, exts...)
		p.FreeAll(got)
	}
}

package mem

import (
	"slices"
	"strings"
	"testing"

	"mklite/internal/hw"
)

// TestPhysStateLayout pins Phys.AppendState on a fresh node: per domain in
// id order, the free-list length, each range's start and size, then the
// free byte count.
func TestPhysStateLayout(t *testing.T) {
	node := hw.KNL7250SNC4()
	p := NewPhys(node)
	var want []int64
	for _, d := range node.Domains {
		c := d.Mem.Capacity
		want = append(want, 1, 0, c, c)
	}
	if got := p.AppendState(nil); !slices.Equal(got, want) {
		t.Fatalf("fresh state %v, want %v", got, want)
	}
	prefix := []int64{-7}
	if got := p.AppendState(prefix); !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
		t.Fatalf("AppendState did not append: %v", got)
	}
}

// stateful is what the cluster memo snapshots.
type stateful interface{ AppendState([]int64) []int64 }

// checkStateSees fails unless mutate changes c's snapshot.
func checkStateSees(t *testing.T, c stateful, field string, mutate func()) {
	t.Helper()
	before := c.AppendState(nil)
	mutate()
	if slices.Equal(before, c.AppendState(nil)) {
		t.Errorf("snapshot ignores %s", field)
	}
}

// TestAppendStateCoversReplayState mutates, one at a time, every field a
// brk replay reads and checks that the snapshot changes with it: a field
// left out of the snapshot would let the cluster memo call two different
// states equal.
func TestAppendStateCoversReplayState(t *testing.T) {
	p := newKNLPhys()
	if _, err := p.Alloc(0, hw.MiB, int64(hw.Page4K)); err != nil {
		t.Fatal(err)
	}
	d := p.domains[0]
	checkStateSees(t, p, "a free range's start", func() { d.free[0].start++ })
	checkStateSees(t, p, "a free range's size", func() { d.free[0].size++ })
	checkStateSees(t, p, "freeSum", func() { d.freeSum++ })
	checkStateSees(t, p, "the free-list length", func() { d.free = d.free[:0] })

	lh := newLinuxHeap(t, true)
	for _, delta := range []int64{3 * hw.MiB, 5 * hw.MiB} {
		if _, _, err := lh.Sbrk(delta); err != nil {
			t.Fatal(err)
		}
	}
	lh.TouchUpTo(4 * hw.MiB)
	if len(lh.vma.Backings) == 0 {
		t.Fatal("touch populated nothing")
	}
	checkStateSees(t, lh, "the break", func() { lh.size++ })
	checkStateSees(t, lh, "touchIdx", func() { lh.touchIdx++ })
	checkStateSees(t, lh, "a segment's start", func() { lh.segs[1].start++ })
	checkStateSees(t, lh, "a segment's end", func() { lh.segs[1].end++ })
	checkStateSees(t, lh, "the segment count", func() { lh.segs = lh.segs[:1] })
	checkVMAState(t, lh, lh.vma)

	hh := newHPCHeap(t, DefaultHPCHeapConfig([]int{0, 1, 2, 3}))
	if _, _, err := hh.Sbrk(3 * hw.MiB); err != nil {
		t.Fatal(err)
	}
	checkStateSees(t, hh, "the break", func() { hh.size++ })
	checkStateSees(t, hh, "the reserved watermark", func() { hh.reserved++ })
	checkVMAState(t, hh, hh.vma)
}

// checkVMAState is TestAppendStateCoversReplayState's pass over the heap
// area v of c.
func checkVMAState(t *testing.T, c stateful, v *VMA) {
	t.Helper()
	checkStateSees(t, c, "Populated", func() { v.Populated++ })
	checkStateSees(t, c, "DemandActive", func() { v.DemandActive = !v.DemandActive })
	b := &v.Backings[0]
	checkStateSees(t, c, "a backing's domain", func() { b.Ext.Domain++ })
	checkStateSees(t, c, "a backing's start", func() { b.Ext.Start++ })
	checkStateSees(t, c, "a backing's size", func() { b.Ext.Size++ })
	checkStateSees(t, c, "a backing's page size", func() { b.Page = hw.Page1G })
	checkStateSees(t, c, "the backing count", func() { v.Backings = v.Backings[:0] })
}

// TestHeapStatsRepeat extends accounting by repetitions of one step's
// change and keeps the peak.
func TestHeapStatsRepeat(t *testing.T) {
	before := HeapStats{Queries: 1, Grows: 2, Shrinks: 3, GrownBytes: 4, ShrunkBytes: 5, Peak: 100, Faults: 6, ZeroedBytes: 7}
	after := HeapStats{Queries: 2, Grows: 4, Shrinks: 6, GrownBytes: 8, ShrunkBytes: 10, Peak: 100, Faults: 12, ZeroedBytes: 14}
	want := HeapStats{Queries: 5, Grows: 10, Shrinks: 15, GrownBytes: 20, ShrunkBytes: 25, Peak: 100, Faults: 30, ZeroedBytes: 35}
	if got := after.Repeat(before, 3); got != want {
		t.Fatalf("Repeat = %+v, want %+v", got, want)
	}
	if got := after.Repeat(before, 0); got != after {
		t.Fatalf("Repeat(0) = %+v, want %+v", got, after)
	}
}

// TestPhysDomainIDs: domains are indexed by id, so gaps, ids past the end
// and negative ids must all read as unknown, with the same error as
// before.
func TestPhysDomainIDs(t *testing.T) {
	node := hw.KNL7250SNC4()
	node.Domains = []hw.DomainSpec{node.Domains[1], node.Domains[5]} // ids 1 and 5
	p := NewPhys(node)
	for _, id := range []int{-1, 0, 2, 4, 6, 99} {
		if p.FreeBytes(id) != 0 || p.Capacity(id) != 0 || p.UsedBytes(id) != 0 || p.LargestFree(id) != 0 {
			t.Errorf("domain %d: unknown id reports memory", id)
		}
		if _, err := p.Alloc(id, 4096, 4096); err == nil || !strings.Contains(err.Error(), "no NUMA domain") {
			t.Errorf("domain %d: Alloc error %v", id, err)
		}
	}
	for _, d := range node.Domains {
		if got := p.FreeBytes(d.ID); got != d.Mem.Capacity {
			t.Errorf("domain %d: %d free, want %d", d.ID, got, d.Mem.Capacity)
		}
		if _, err := p.Alloc(d.ID, 4096, 4096); err != nil {
			t.Errorf("domain %d: %v", d.ID, err)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(p.AppendState(nil)); got != 2*4 {
		t.Fatalf("state of two one-range domains has %d words, want 8", got)
	}
}

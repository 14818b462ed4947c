package mem

import (
	"testing"

	"mklite/internal/hw"
)

func newLinuxHeap(t *testing.T, thp bool) *LinuxHeap {
	t.Helper()
	as := NewAddrSpace(newKNLPhys())
	h, err := NewLinuxHeap(as, 1*hw.GiB, []int{0, 1, 2, 3}, thp)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newHPCHeap(t *testing.T, cfg HPCHeapConfig) *HPCHeap {
	t.Helper()
	as := NewAddrSpace(newKNLPhys())
	if cfg.Domains == nil {
		cfg.Domains = []int{4, 5, 6, 7, 0, 1, 2, 3}
	}
	h, err := NewHPCHeap(as, 1*hw.GiB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestLinuxHeapGrowDefersPhysical(t *testing.T) {
	h := newLinuxHeap(t, false)
	size, w, err := h.Sbrk(10 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if size != 10*hw.MiB {
		t.Fatalf("size = %d", size)
	}
	if w.AllocatedBytes != 0 || w.Faults != 0 {
		t.Fatalf("grow did physical work: %+v", w)
	}
	if !w.SyscallIssued {
		t.Fatal("brk not marked as a syscall")
	}
}

func TestLinuxHeapTouchFaults4K(t *testing.T) {
	h := newLinuxHeap(t, false)
	h.Sbrk(4 * hw.MiB)
	w := h.TouchUpTo(4 * hw.MiB)
	if w.Faults != 1024 {
		t.Fatalf("faults = %d, want 1024 (4KiB pages)", w.Faults)
	}
	if w.ZeroedBytes != 4*hw.MiB {
		t.Fatalf("zeroed = %d, Linux clears every faulted page", w.ZeroedBytes)
	}
	// Second touch is free.
	if w := h.TouchUpTo(4 * hw.MiB); w.Faults != 0 {
		t.Fatalf("re-touch faulted %d", w.Faults)
	}
}

func TestLinuxHeapTHPOnlyWhenAligned(t *testing.T) {
	h := newLinuxHeap(t, true)
	// Aligned 4 MiB growth from an aligned (zero) break: THP applies.
	h.Sbrk(4 * hw.MiB)
	w := h.TouchUpTo(4 * hw.MiB)
	if w.Faults != 2 {
		t.Fatalf("aligned THP faults = %d, want 2 2MiB faults", w.Faults)
	}
	// Misaligned growth: starts at 4MiB+12KiB after a small grow.
	h.Sbrk(12 * 1024)
	h.TouchUpTo(h.Size())
	h.Sbrk(4 * hw.MiB)
	w = h.TouchUpTo(h.Size())
	if w.Faults < 1024 {
		t.Fatalf("misaligned growth took %d faults, expected 4KiB faulting", w.Faults)
	}
}

func TestLinuxHeapShrinkReleasesAndRefaults(t *testing.T) {
	h := newLinuxHeap(t, false)
	h.Sbrk(8 * hw.MiB)
	h.TouchUpTo(8 * hw.MiB)
	size, w, err := h.Sbrk(-4 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if size != 4*hw.MiB {
		t.Fatalf("size after shrink = %d", size)
	}
	if w.FreedBytes != 4*hw.MiB {
		t.Fatalf("freed = %d, Linux returns memory on shrink", w.FreedBytes)
	}
	// Regrow and re-touch: the released range must fault again.
	h.Sbrk(4 * hw.MiB)
	w2 := h.TouchUpTo(8 * hw.MiB)
	if w2.Faults != 1024 {
		t.Fatalf("refaults = %d, want 1024", w2.Faults)
	}
}

func TestLinuxHeapShrinkBelowZeroClamps(t *testing.T) {
	h := newLinuxHeap(t, false)
	h.Sbrk(1 * hw.MiB)
	size, _, err := h.Sbrk(-10 * hw.MiB)
	if err != nil || size != 0 {
		t.Fatalf("size = %d, err = %v", size, err)
	}
}

func TestLinuxHeapQuery(t *testing.T) {
	h := newLinuxHeap(t, false)
	h.Sbrk(1024)
	size, _, _ := h.Sbrk(0)
	if size != 1024 {
		t.Fatalf("query = %d", size)
	}
	if h.Stats().Queries != 1 {
		t.Fatalf("queries = %d", h.Stats().Queries)
	}
}

func TestLinuxHeapLimit(t *testing.T) {
	h := newLinuxHeap(t, false)
	if _, _, err := h.Sbrk(2 * hw.GiB); err == nil {
		t.Fatal("over-limit grow accepted")
	}
}

func TestHPCHeapBacksAtBrkTime(t *testing.T) {
	h := newHPCHeap(t, DefaultHPCHeapConfig(nil))
	_, w, err := h.Sbrk(3 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if w.AllocatedBytes < 3*hw.MiB {
		t.Fatalf("allocated %d at brk time, want >= request", w.AllocatedBytes)
	}
	if w.AllocatedBytes%int64(hw.Page2M) != 0 {
		t.Fatalf("allocation %d not 2MiB granular", w.AllocatedBytes)
	}
	// No faults ever.
	if tw := h.TouchUpTo(3 * hw.MiB); tw.Faults != 0 {
		t.Fatalf("HPC heap faulted %d times", tw.Faults)
	}
}

func TestHPCHeapZeroFirst4KOnly(t *testing.T) {
	cfg := DefaultHPCHeapConfig(nil)
	cfg.Aggressive = false
	h := newHPCHeap(t, cfg)
	_, w, _ := h.Sbrk(4 * hw.MiB)
	// Two 2MiB chunks, 4KiB zeroed each.
	if w.ZeroedBytes != 2*int64(hw.Page4K) {
		t.Fatalf("zeroed = %d, want 8KiB", w.ZeroedBytes)
	}
}

func TestHPCHeapIgnoresShrink(t *testing.T) {
	h := newHPCHeap(t, DefaultHPCHeapConfig(nil))
	h.Sbrk(8 * hw.MiB)
	reserved := h.reserved
	size, w, err := h.Sbrk(-4 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	// The break moves (the application's view shrinks) ...
	if size != 4*hw.MiB {
		t.Fatalf("size after shrink = %d", size)
	}
	// ... but no physical memory is returned.
	if w.FreedBytes != 0 {
		t.Fatalf("ignored shrink freed %d", w.FreedBytes)
	}
	if h.reserved != reserved {
		t.Fatalf("reserved changed: %d -> %d", reserved, h.reserved)
	}
	if h.Stats().Shrinks != 1 {
		t.Fatal("shrink not counted")
	}
}

func TestHPCHeapShrinkHonouredWhenConfigured(t *testing.T) {
	cfg := DefaultHPCHeapConfig(nil)
	cfg.IgnoreShrink = false
	cfg.Aggressive = false
	h := newHPCHeap(t, cfg)
	h.Sbrk(8 * hw.MiB)
	size, w, _ := h.Sbrk(-4 * hw.MiB)
	if size != 4*hw.MiB {
		t.Fatalf("size = %d", size)
	}
	if w.FreedBytes != 4*hw.MiB {
		t.Fatalf("freed = %d", w.FreedBytes)
	}
}

func TestHPCHeapAggressiveOverReserves(t *testing.T) {
	cfg := DefaultHPCHeapConfig(nil)
	cfg.Aggressive = true
	h := newHPCHeap(t, cfg)
	h.Sbrk(16 * hw.MiB)
	// A small subsequent grow should be absorbed by the over-reserve
	// with no new allocation.
	_, w, _ := h.Sbrk(1 * hw.MiB)
	if w.AllocatedBytes != 0 {
		t.Fatalf("aggressive heap allocated %d on small regrow", w.AllocatedBytes)
	}
	if h.reserved < h.Size() {
		t.Fatal("reserved below size")
	}
}

func TestHPCHeapGrowReusesRetainedMemory(t *testing.T) {
	// Shrink then regrow: the retained pages are reused with no new
	// allocation — the LWK pattern that kills the LTP page-fault test.
	cfg := DefaultHPCHeapConfig(nil)
	cfg.Aggressive = false
	h := newHPCHeap(t, cfg)
	h.Sbrk(8 * hw.MiB)
	h.Sbrk(-8 * hw.MiB) // break moves to 0; physical memory retained
	size, w, _ := h.Sbrk(2 * hw.MiB)
	if size != 2*hw.MiB {
		t.Fatalf("size = %d", size)
	}
	if w.AllocatedBytes != 0 {
		t.Fatalf("regrow allocated %d, want reuse of retained pages", w.AllocatedBytes)
	}
}

func TestHPCHeapPreferredDomainsMCDRAM(t *testing.T) {
	h := newHPCHeap(t, DefaultHPCHeapConfig(nil))
	h.Sbrk(64 * hw.MiB)
	kinds := h.as.BytesByKind()
	if kinds[hw.MCDRAM] == 0 {
		t.Fatal("HPC heap did not allocate from MCDRAM first")
	}
}

func TestHPCHeapQueryAndStats(t *testing.T) {
	h := newHPCHeap(t, DefaultHPCHeapConfig(nil))
	h.Sbrk(0)
	h.Sbrk(1 * hw.MiB)
	h.Sbrk(-512 * 1024)
	st := h.Stats()
	if st.Queries != 1 || st.Grows != 1 || st.Shrinks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Calls() != 3 {
		t.Fatalf("calls = %d", st.Calls())
	}
	if st.Peak != 1*hw.MiB {
		t.Fatalf("peak = %d", st.Peak)
	}
}

func TestHPCHeapLimit(t *testing.T) {
	h := newHPCHeap(t, DefaultHPCHeapConfig(nil))
	if _, _, err := h.Sbrk(2 * hw.GiB); err == nil {
		t.Fatal("over-limit grow accepted")
	}
}

// TestLuleshBrkTraceShape replays the paper's Lulesh -s30 brk trace
// statistics (section IV): ~7.5k queries, ~3k growth requests, ~1.5k
// shrinks; cumulative growth orders of magnitude beyond the peak. The HPC
// heap must service it with zero faults; the Linux heap must fault heavily.
func TestLuleshBrkTraceShape(t *testing.T) {
	run := func(h Heap) (faults int64, calls int64) {
		// A compact synthetic trace with the paper's ratio
		// (queries : grows : shrinks ~ 7526 : 3028 : 1499) and
		// shrink-then-regrow churn.
		for i := 0; i < 750; i++ {
			h.Sbrk(0)
			if i%2 == 0 {
				if _, _, err := h.Sbrk(256 * 1024); err != nil {
					t.Fatal(err)
				}
				w := h.TouchUpTo(h.Size())
				faults += w.Faults
			}
			if i%5 == 4 {
				h.Sbrk(-128 * 1024)
			}
			w := h.TouchUpTo(h.Size())
			faults += w.Faults
		}
		st := h.Stats()
		return faults, st.Calls()
	}

	lin := newLinuxHeap(t, false)
	linFaults, linCalls := run(lin)
	hpc := newHPCHeap(t, DefaultHPCHeapConfig(nil))
	hpcFaults, hpcCalls := run(hpc)

	if linCalls != hpcCalls {
		t.Fatalf("call counts differ: %d vs %d", linCalls, hpcCalls)
	}
	if hpcFaults != 0 {
		t.Fatalf("HPC heap faulted %d times", hpcFaults)
	}
	if linFaults < 1000 {
		t.Fatalf("Linux heap faulted only %d times; churn should refault", linFaults)
	}
	// Cumulative growth far exceeds peak on the Linux side (the 22 GB vs
	// 87 MB phenomenon, scaled down).
	st := lin.Stats()
	if st.GrownBytes <= st.Peak {
		t.Fatalf("grown %d <= peak %d; trace should churn", st.GrownBytes, st.Peak)
	}
}

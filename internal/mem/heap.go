package mem

import (
	"fmt"
	"slices"

	"mklite/internal/hw"
	"mklite/internal/trace"
)

// Work quantifies the mechanical cost of a memory operation in hardware
// events. The kernels convert Work into time with their own service-cost
// constants; keeping mem time-free avoids circular dependencies.
type Work struct {
	Faults         int64 // demand page faults serviced
	PagesMapped    int64 // page-table entries installed
	ZeroedBytes    int64 // bytes cleared
	AllocatedBytes int64 // physical bytes newly allocated
	FreedBytes     int64 // physical bytes returned
	CopiedBytes    int64 // bytes copied during page migration
	FailedBytes    int64 // bytes a migration could not move
	SyscallIssued  bool  // a kernel crossing happened
}

// Accumulate adds w2 into w.
func (w *Work) Accumulate(w2 Work) {
	w.Faults += w2.Faults
	w.PagesMapped += w2.PagesMapped
	w.ZeroedBytes += w2.ZeroedBytes
	w.AllocatedBytes += w2.AllocatedBytes
	w.FreedBytes += w2.FreedBytes
	w.CopiedBytes += w2.CopiedBytes
	w.FailedBytes += w2.FailedBytes
	w.SyscallIssued = w.SyscallIssued || w2.SyscallIssued
}

// HeapStats is the accounting the paper's brk trace reports (section IV):
// query/grow/shrink counts, peak size and cumulative growth.
type HeapStats struct {
	Queries     int64
	Grows       int64
	Shrinks     int64
	GrownBytes  int64 // cumulative bytes of growth requests honoured
	ShrunkBytes int64 // cumulative bytes actually released
	Peak        int64
	Faults      int64
	ZeroedBytes int64
}

// Calls returns the total number of brk/sbrk invocations observed.
func (s HeapStats) Calls() int64 { return s.Queries + s.Grows + s.Shrinks }

// Repeat returns s extended by n more repetitions of the change from
// before to s, keeping s's Peak: the accounting of a heap that replays the
// same trace n more times from the state it ended in, having ended it where
// it started (a repetition then retraces sizes the first one reached).
func (s HeapStats) Repeat(before HeapStats, n int64) HeapStats {
	return HeapStats{
		Queries:     s.Queries + n*(s.Queries-before.Queries),
		Grows:       s.Grows + n*(s.Grows-before.Grows),
		Shrinks:     s.Shrinks + n*(s.Shrinks-before.Shrinks),
		GrownBytes:  s.GrownBytes + n*(s.GrownBytes-before.GrownBytes),
		ShrunkBytes: s.ShrunkBytes + n*(s.ShrunkBytes-before.ShrunkBytes),
		Peak:        s.Peak,
		Faults:      s.Faults + n*(s.Faults-before.Faults),
		ZeroedBytes: s.ZeroedBytes + n*(s.ZeroedBytes-before.ZeroedBytes),
	}
}

// Heap is the interface shared by the Linux and HPC heap engines.
type Heap interface {
	// Sbrk adjusts the program break by delta bytes (0 queries). It
	// returns the new heap size and the mechanical work done inside the
	// kernel during the call.
	Sbrk(delta int64) (int64, Work, error)
	// TouchUpTo simulates the application touching the heap up to
	// limit bytes from its base, returning fault work (zero for
	// upfront-mapped heaps).
	TouchUpTo(limit int64) Work
	// Size returns the current heap size in bytes.
	Size() int64
	// Stats returns the accumulated accounting.
	Stats() HeapStats
	// AppendState appends every field a later Sbrk or TouchUpTo reads
	// (the engine's own cursor state and its area's backing) to dst and
	// returns the extended slice. A heap whose state equals an earlier
	// one, over a node allocator whose state (Phys.AppendState) does too,
	// replays any brk trace exactly as it did then. Accounting (Stats)
	// is not part of the state: it only accumulates.
	AppendState(dst []int64) []int64
}

// --------------------------------------------------------------------------
// Linux heap

// LinuxHeap models the stock Linux heap: brk only moves the boundary,
// physical pages arrive via demand faults on first touch, every faulted
// page is zeroed, shrink requests release memory immediately, and
// transparent huge pages apply only when the populated frontier happens to
// be 2 MiB aligned with at least 2 MiB to go.
type LinuxHeap struct {
	as   *AddrSpace
	vma  *VMA
	size int64 // current program break offset
	thp  bool
	st   HeapStats
	// segs records growth segments [start,end) so that first-touch can
	// honour THP's alignment rule per segment; touchIdx is the first
	// segment that may still need population.
	segs     []heapSeg
	touchIdx int
}

type heapSeg struct{ start, end int64 }

// NewLinuxHeap reserves maxSize of virtual space for the heap, demand
// paged, preferring the given domains on first touch.
func NewLinuxHeap(as *AddrSpace, maxSize int64, domains []int, thp bool) (*LinuxHeap, error) {
	maxPage := hw.Page4K
	if thp {
		maxPage = hw.Page2M
	}
	v, err := as.Map(maxSize, VMAHeap, Policy{Domains: domains, MaxPage: maxPage, Demand: true})
	if err != nil {
		return nil, fmt.Errorf("mem: linux heap reserve: %w", err)
	}
	return &LinuxHeap{as: as, vma: v, thp: thp}, nil
}

// Sbrk implements Heap.
func (h *LinuxHeap) Sbrk(delta int64) (int64, Work, error) {
	w := Work{SyscallIssued: true}
	sink := h.as.Sink()
	switch {
	case delta == 0:
		h.st.Queries++
		sink.CountKey(trace.KeyHeapQueries, 1)
	case delta > 0:
		if h.size+delta > h.vma.Size {
			return h.size, w, fmt.Errorf("mem: heap limit exceeded (%d + %d > %d)", h.size, delta, h.vma.Size)
		}
		// Each growth request is its own segment: Linux decides THP
		// eligibility per request, so merging would overstate
		// large-page coverage.
		h.segs = append(h.segs, heapSeg{start: h.size, end: h.size + delta})
		h.size += delta
		h.st.Grows++
		h.st.GrownBytes += delta
		sink.CountKey(trace.KeyHeapGrows, 1)
		sink.CountKey(trace.KeyHeapGrownBytes, delta)
		if h.size > h.st.Peak {
			h.st.Peak = h.size
			sink.CountMaxKey(trace.KeyHeapPeakBytes, h.size)
		}
		// No physical work: population is deferred to first touch.
	default:
		shrink := -delta
		if shrink > h.size {
			shrink = h.size
		}
		h.size -= shrink
		h.st.Shrinks++
		// Linux releases the physical pages beyond the new break.
		freed := h.as.Trim(h.vma, h.size)
		h.st.ShrunkBytes += freed
		w.FreedBytes += freed
		sink.CountKey(trace.KeyHeapShrinks, 1)
		sink.CountKey(trace.KeyHeapShrunkBytes, freed)
		// Truncate growth segments to the new break; regrowth will
		// start a fresh (likely unaligned) segment.
		for len(h.segs) > 0 {
			last := &h.segs[len(h.segs)-1]
			if last.end <= h.size {
				break
			}
			if last.start >= h.size {
				h.segs = h.segs[:len(h.segs)-1]
				continue
			}
			last.end = h.size
		}
		if h.touchIdx > len(h.segs) {
			h.touchIdx = len(h.segs)
		}
		// The trimmed tail may need repopulation after regrowth.
		for h.touchIdx > 0 && h.segs[h.touchIdx-1].end > h.vma.Populated {
			h.touchIdx--
		}
	}
	return h.size, w, nil
}

// TouchUpTo implements Heap: first-touch faulting with per-page zeroing.
// THP applies per growth segment, and only when the segment begins on a
// 2 MiB boundary and spans at least 2 MiB — "Linux ... can only allocate
// large pages when the heap boundary happens to be properly aligned and the
// request is large enough" (section IV).
func (h *LinuxHeap) TouchUpTo(limit int64) Work {
	if limit > h.size {
		limit = h.size
	}
	var w Work
	// Advance the cursor past segments that are already fully populated
	// so long brk traces stay O(calls), not O(calls x segments).
	for h.touchIdx < len(h.segs) && h.segs[h.touchIdx].end <= h.vma.Populated {
		h.touchIdx++
	}
	for _, seg := range h.segs[h.touchIdx:] {
		if seg.start >= limit {
			break
		}
		end := seg.end
		if end > limit {
			end = limit
		}
		page := hw.Page4K
		if h.thp && seg.start%int64(hw.Page2M) == 0 && end-seg.start >= int64(hw.Page2M) {
			page = hw.Page2M
		}
		res := h.as.TouchWithPage(h.vma, seg.start, end-seg.start, page)
		w.Faults += res.Faults
		w.PagesMapped += res.Faults
		// Linux maps the zero page then clears on first write: the
		// full page is cleared once per fault.
		w.ZeroedBytes += res.BytesPopulated
		w.AllocatedBytes += res.BytesPopulated
	}
	h.st.Faults += w.Faults
	h.st.ZeroedBytes += w.ZeroedBytes
	if sink := h.as.Sink(); sink.Counting() && (w.Faults > 0 || w.ZeroedBytes > 0) {
		sink.CountKey(trace.KeyHeapFaults, w.Faults)
		sink.CountKey(trace.KeyHeapZeroedBytes, w.ZeroedBytes)
	}
	return w
}

// Size implements Heap.
func (h *LinuxHeap) Size() int64 { return h.size }

// Stats implements Heap.
func (h *LinuxHeap) Stats() HeapStats { return h.st }

// AppendState implements Heap: the break, the touch cursor, the growth
// segments and the area's backing.
func (h *LinuxHeap) AppendState(dst []int64) []int64 {
	dst = slices.Grow(dst, 3+2*len(h.segs)+h.vma.stateLen())
	dst = append(dst, h.size, int64(h.touchIdx), int64(len(h.segs)))
	for _, s := range h.segs {
		dst = append(dst, s.start, s.end)
	}
	return h.vma.appendState(dst)
}

// --------------------------------------------------------------------------
// HPC heap (LWK)

// HPCHeapConfig tunes the LWK heap engine.
type HPCHeapConfig struct {
	// Domains is the NUMA preference order for heap pages.
	Domains []int
	// ChunkAlign is the growth granularity; the paper's kernels use
	// 2 MiB.
	ChunkAlign int64
	// Aggressive enables the "aggressively extend the heap" behaviour:
	// each expansion reserves at least half the current heap size, so
	// runs of small brk calls hit pre-extended memory.
	Aggressive bool
	// ZeroFirst4K clears only the first 4 KiB of each fresh 2 MiB
	// chunk — the AMG 2013 bug workaround described in section IV.
	ZeroFirst4K bool
	// IgnoreShrink drops negative brk requests (LWK behaviour: "many
	// high-end HPC applications allocate memory at the beginning and
	// retain it"). When false the engine releases memory like Linux,
	// which exists so tests can isolate the effect.
	IgnoreShrink bool
}

// DefaultHPCHeapConfig returns the paper's LWK heap behaviour.
func DefaultHPCHeapConfig(domains []int) HPCHeapConfig {
	return HPCHeapConfig{
		Domains:      domains,
		ChunkAlign:   int64(hw.Page2M),
		Aggressive:   true,
		ZeroFirst4K:  true,
		IgnoreShrink: true,
	}
}

// HPCHeap models the LWK heap: 2 MiB aligned growth, physical pages
// allocated at brk time (so the application never faults on the heap),
// shrink requests ignored, and only the first 4 KiB of fresh memory zeroed.
type HPCHeap struct {
	as       *AddrSpace
	vma      *VMA
	cfg      HPCHeapConfig
	size     int64 // program break as seen by the application
	reserved int64 // physically backed bytes (>= size)
	st       HeapStats
}

// NewHPCHeap reserves maxSize of virtual space managed by the HPC engine.
func NewHPCHeap(as *AddrSpace, maxSize int64, cfg HPCHeapConfig) (*HPCHeap, error) {
	if cfg.ChunkAlign <= 0 {
		cfg.ChunkAlign = int64(hw.Page2M)
	}
	v, err := as.Map(maxSize, VMAHeap, Policy{
		Domains: cfg.Domains,
		MaxPage: hw.Page2M,
		Demand:  true, // population is driven explicitly at brk time
	})
	if err != nil {
		return nil, fmt.Errorf("mem: hpc heap reserve: %w", err)
	}
	return &HPCHeap{as: as, vma: v, cfg: cfg}, nil
}

// Sbrk implements Heap.
func (h *HPCHeap) Sbrk(delta int64) (int64, Work, error) {
	w := Work{SyscallIssued: true}
	sink := h.as.Sink()
	switch {
	case delta == 0:
		h.st.Queries++
		sink.CountKey(trace.KeyHeapQueries, 1)
	case delta > 0:
		h.st.Grows++
		h.st.GrownBytes += delta
		sink.CountKey(trace.KeyHeapGrows, 1)
		sink.CountKey(trace.KeyHeapGrownBytes, delta)
		newSize := h.size + delta
		if newSize > h.vma.Size {
			return h.size, w, fmt.Errorf("mem: heap limit exceeded (%d > %d)", newSize, h.vma.Size)
		}
		if newSize > h.reserved {
			// Extend physical backing in aligned chunks; the
			// aggressive mode over-reserves to absorb future
			// growth without further kernel work.
			target := roundUp(newSize, h.cfg.ChunkAlign)
			if h.cfg.Aggressive {
				// Over-reserve by half the new size so runs of
				// small brk calls are absorbed without further
				// allocation ("aggressively extend the heap to
				// avoid contention ... in subsequent brk
				// calls").
				target = roundUp(newSize+newSize/2, h.cfg.ChunkAlign)
			}
			if target > h.vma.Size {
				target = h.vma.Size
			}
			res := h.as.PopulateTo(h.vma, target)
			grown := res.BytesPopulated
			if h.reserved+grown < newSize {
				return h.size, w, fmt.Errorf("mem: out of physical memory extending heap to %d (backed %d)",
					newSize, h.reserved+grown)
			}
			h.reserved += grown
			w.AllocatedBytes += grown
			w.PagesMapped += grown / h.cfg.ChunkAlign
			if h.cfg.ZeroFirst4K {
				w.ZeroedBytes += (grown / h.cfg.ChunkAlign) * int64(hw.Page4K)
			} else {
				w.ZeroedBytes += grown
			}
			h.st.ZeroedBytes += w.ZeroedBytes
			sink.CountKey(trace.KeyHeapZeroedBytes, w.ZeroedBytes)
		}
		h.size = newSize
		if h.size > h.st.Peak {
			h.st.Peak = h.size
			sink.CountMaxKey(trace.KeyHeapPeakBytes, h.size)
		}
	default:
		h.st.Shrinks++
		sink.CountKey(trace.KeyHeapShrinks, 1)
		shrink := -delta
		if shrink > h.size {
			shrink = h.size
		}
		// The break always moves (glibc's view of the heap stays
		// consistent — the trace's 87 MB peak vs 22 GB cumulative
		// growth requires it), but with IgnoreShrink the physical
		// memory is retained: "mOS does not return memory to the
		// system when the heap shrinks".
		h.size -= shrink
		if !h.cfg.IgnoreShrink {
			freed := h.as.Trim(h.vma, h.size)
			h.reserved -= freed
			h.st.ShrunkBytes += freed
			w.FreedBytes += freed
			sink.CountKey(trace.KeyHeapShrunkBytes, freed)
		}
	}
	return h.size, w, nil
}

// TouchUpTo implements Heap. The HPC heap never faults: everything up to
// the break was backed at brk time.
func (h *HPCHeap) TouchUpTo(limit int64) Work { return Work{} }

// Size implements Heap.
func (h *HPCHeap) Size() int64 { return h.size }

// Stats implements Heap.
func (h *HPCHeap) Stats() HeapStats { return h.st }

// AppendState implements Heap: the break, the reserved watermark and the
// area's backing.
func (h *HPCHeap) AppendState(dst []int64) []int64 {
	dst = slices.Grow(dst, 2+h.vma.stateLen())
	return h.vma.appendState(append(dst, h.size, h.reserved))
}

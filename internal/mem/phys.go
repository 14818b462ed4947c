// Package mem implements the memory-management substrate shared by the
// three kernel models: a per-NUMA-domain physical extent allocator, virtual
// address spaces with VMAs, placement policies (NUMA preference, MCDRAM
// spill, upfront vs demand paging), and the two heap engines whose contrast
// drives the paper's Lulesh results — the Linux demand-paged heap and the
// LWKs' HPC-optimised heap.
package mem

import (
	"fmt"
	"slices"
	"sort"

	"mklite/internal/hw"
)

// Extent is a contiguous physical memory range inside one NUMA domain.
type Extent struct {
	Domain int
	Start  int64
	Size   int64
}

// End returns the first byte after the extent.
func (e Extent) End() int64 { return e.Start + e.Size }

// freeRange is an entry of a domain's free list.
type freeRange struct {
	start, size int64
}

// physDomain tracks one NUMA domain's physical memory.
type physDomain struct {
	id       int
	kind     hw.MemKind
	capacity int64       // bytes this allocator owns in the domain
	bound    int64       // end of the domain's address range (>= capacity)
	free     []freeRange // sorted by start, coalesced
	freeSum  int64
}

// Phys is a node's physical memory allocator: one extent allocator per NUMA
// domain. It is the single authority on physical occupancy — every kernel
// and every process address space on a node allocates through it.
type Phys struct {
	node *hw.NodeSpec
	// domains is indexed by domain id; ids are small and dense on every
	// node, and a gap holds nil.
	domains []*physDomain
}

// newPhys returns an allocator with one empty physDomain per domain of the
// node, each owning nothing yet.
func newPhys(node *hw.NodeSpec) *Phys {
	n := 0
	for _, d := range node.Domains {
		if d.ID < 0 {
			panic(fmt.Sprintf("mem: negative NUMA domain id %d", d.ID))
		}
		n = max(n, d.ID+1)
	}
	p := &Phys{node: node, domains: make([]*physDomain, n)}
	for _, d := range node.Domains {
		p.domains[d.ID] = &physDomain{id: d.ID, kind: d.Mem.Kind, bound: d.Mem.Capacity}
	}
	return p
}

// NewPhys returns an allocator with every domain of the node entirely free.
func NewPhys(node *hw.NodeSpec) *Phys {
	p := newPhys(node)
	for _, d := range p.domains {
		if d == nil {
			continue
		}
		d.capacity = d.bound
		d.free = []freeRange{{start: 0, size: d.bound}}
		d.freeSum = d.bound
	}
	return p
}

// NewPhysView builds an allocator over a set of granted extents — the
// LWK's view of the memory IHK carved out of a running Linux. The extents
// keep their node-level offsets, so contiguity (and therefore large-page
// eligibility) is exactly what the donor could provide: an LWK booted late
// inherits Linux's fragmentation, one booted early gets pristine ranges
// (section II-D5).
func NewPhysView(node *hw.NodeSpec, grants []Extent) *Phys {
	p := newPhys(node)
	for _, g := range grants {
		d, err := p.domain(g.Domain)
		if err != nil {
			panic(fmt.Sprintf("mem: grant in unknown domain %d", g.Domain))
		}
		d.capacity += g.Size
		d.freeSum += g.Size
		// Insert sorted; grants from a single donor never overlap.
		idx := sort.Search(len(d.free), func(i int) bool { return d.free[i].start >= g.Start })
		d.free = append(d.free, freeRange{})
		copy(d.free[idx+1:], d.free[idx:])
		d.free[idx] = freeRange{start: g.Start, size: g.Size}
	}
	// Coalesce adjacent grants.
	for _, d := range p.domains {
		if d == nil {
			continue
		}
		var out []freeRange
		for _, f := range d.free {
			if n := len(out); n > 0 && out[n-1].start+out[n-1].size == f.start {
				out[n-1].size += f.size
				continue
			}
			out = append(out, f)
		}
		d.free = out
	}
	return p
}

// Node returns the hardware spec the allocator was built for.
func (p *Phys) Node() *hw.NodeSpec { return p.node }

// lookup returns the domain with the given id, nil for unknown ids.
func (p *Phys) lookup(id int) *physDomain {
	if id < 0 || id >= len(p.domains) {
		return nil
	}
	return p.domains[id]
}

func (p *Phys) domain(id int) (*physDomain, error) {
	d := p.lookup(id)
	if d == nil {
		return nil, fmt.Errorf("mem: no NUMA domain %d", id)
	}
	return d, nil
}

// FreeBytes returns the total free bytes in a domain (0 for unknown ids).
func (p *Phys) FreeBytes(domain int) int64 {
	if d := p.lookup(domain); d != nil {
		return d.freeSum
	}
	return 0
}

// Capacity returns the domain capacity in bytes (0 for unknown ids).
func (p *Phys) Capacity(domain int) int64 {
	if d := p.lookup(domain); d != nil {
		return d.capacity
	}
	return 0
}

// UsedBytes returns allocated bytes in a domain.
func (p *Phys) UsedBytes(domain int) int64 {
	if d := p.lookup(domain); d != nil {
		return d.capacity - d.freeSum
	}
	return 0
}

// AppendState appends the allocator's occupancy to dst and returns the
// extended slice: for every domain in id order, the length of its free
// list, each free range's start and size, then its free byte count. Two
// allocators over the same node with equal states answer every Alloc and
// Free identically.
func (p *Phys) AppendState(dst []int64) []int64 {
	n := 0
	for _, d := range p.domains {
		if d != nil {
			n += 2 + 2*len(d.free)
		}
	}
	dst = slices.Grow(dst, n)
	for _, d := range p.domains {
		if d == nil {
			continue
		}
		dst = append(dst, int64(len(d.free)))
		for _, f := range d.free {
			dst = append(dst, f.start, f.size)
		}
		dst = append(dst, d.freeSum)
	}
	return dst
}

// LargestFree returns the size of the largest free contiguous range in the
// domain. Large-page eligibility depends on this, which is how early-boot
// reservation (mOS) beats late requests (McKernel) for 1 GiB pages.
func (p *Phys) LargestFree(domain int) int64 {
	d := p.lookup(domain)
	if d == nil {
		return 0
	}
	var max int64
	for _, f := range d.free {
		if f.size > max {
			max = f.size
		}
	}
	return max
}

// Alloc carves a contiguous extent of exactly size bytes, aligned to align,
// from the given domain using first fit. size must be positive and align a
// positive power of two.
func (p *Phys) Alloc(domain int, size, align int64) (Extent, error) {
	if size <= 0 {
		return Extent{}, fmt.Errorf("mem: Alloc of non-positive size %d", size)
	}
	if align <= 0 || align&(align-1) != 0 {
		return Extent{}, fmt.Errorf("mem: Alloc with bad alignment %d", align)
	}
	d, err := p.domain(domain)
	if err != nil {
		return Extent{}, err
	}
	for i, f := range d.free {
		start := (f.start + align - 1) &^ (align - 1)
		pad := start - f.start
		if f.size < pad+size {
			continue
		}
		d.split(i, start, size)
		return Extent{Domain: domain, Start: start, Size: size}, nil
	}
	return Extent{}, fmt.Errorf("mem: domain %d cannot satisfy %d bytes contiguous (free %d, largest %d)",
		domain, size, d.freeSum, p.LargestFree(domain))
}

// split removes [start, start+size) from free range i, which must contain
// it: the range is replaced, in place, by its nonempty [pre] and [post]
// remainders, shifting the tail by at most one entry.
func (d *physDomain) split(i int, start, size int64) {
	f := d.free[i]
	pre := freeRange{start: f.start, size: start - f.start}
	post := freeRange{start: start + size, size: f.start + f.size - (start + size)}
	switch {
	case pre.size > 0 && post.size > 0:
		d.free = append(d.free, freeRange{})
		copy(d.free[i+2:], d.free[i+1:])
		d.free[i], d.free[i+1] = pre, post
	case pre.size > 0:
		d.free[i] = pre
	case post.size > 0:
		d.free[i] = post
	default:
		d.free = append(d.free[:i], d.free[i+1:]...)
	}
	d.freeSum -= size
}

// AllocUpTo allocates as much of size as the domain can provide, possibly
// as multiple extents, each aligned to align and a multiple of align. It
// returns the extents and the total bytes obtained (<= size). Used for
// best-effort spill allocation.
func (p *Phys) AllocUpTo(domain int, size, align int64) ([]Extent, int64) {
	return p.appendUpTo(nil, domain, size, align)
}

// appendUpTo is AllocUpTo appending the extents to out. Callers that
// consume the extents at once pass a reused buffer; a nil out is allocated
// at the first extent with room for one per free range of the domain, the
// usual bound on how many chunks one request takes.
func (p *Phys) appendUpTo(out []Extent, domain int, size, align int64) ([]Extent, int64) {
	var got int64
	for got < size {
		want := size - got
		// Try the largest aligned chunk that fits somewhere.
		chunk := p.largestAlignedChunk(domain, align)
		if chunk == 0 {
			break
		}
		if chunk > want {
			chunk = want &^ (align - 1)
			if chunk == 0 {
				break
			}
		}
		if out == nil {
			out = make([]Extent, 0, len(p.lookup(domain).free))
		}
		e, err := p.Alloc(domain, chunk, align)
		if err != nil {
			break
		}
		out = append(out, e)
		got += e.Size
	}
	return out, got
}

// largestAlignedChunk returns the largest multiple of align obtainable as a
// single extent from the domain.
func (p *Phys) largestAlignedChunk(domain int, align int64) int64 {
	d := p.lookup(domain)
	if d == nil {
		return 0
	}
	var best int64
	for _, f := range d.free {
		start := (f.start + align - 1) &^ (align - 1)
		avail := f.size - (start - f.start)
		if avail < align {
			continue
		}
		if c := avail &^ (align - 1); c > best {
			best = c
		}
	}
	return best
}

// Free returns an extent to its domain, coalescing adjacent free ranges.
// Freeing overlapping or never-allocated ranges panics: physical
// double-free is always a kernel-model bug.
func (p *Phys) Free(e Extent) {
	d, err := p.domain(e.Domain)
	if err != nil {
		panic(err)
	}
	if e.Size <= 0 || e.Start < 0 || e.End() > d.bound {
		panic(fmt.Sprintf("mem: Free of bad extent %+v", e))
	}
	idx := sort.Search(len(d.free), func(i int) bool { return d.free[i].start >= e.Start })
	// Overlap checks against neighbours.
	if idx > 0 && d.free[idx-1].start+d.free[idx-1].size > e.Start {
		panic(fmt.Sprintf("mem: double free of %+v", e))
	}
	if idx < len(d.free) && d.free[idx].start < e.End() {
		panic(fmt.Sprintf("mem: double free of %+v", e))
	}
	d.free = append(d.free, freeRange{})
	copy(d.free[idx+1:], d.free[idx:])
	d.free[idx] = freeRange{start: e.Start, size: e.Size}
	d.freeSum += e.Size
	// Coalesce with the right neighbour, then the left.
	if idx+1 < len(d.free) && d.free[idx].start+d.free[idx].size == d.free[idx+1].start {
		d.free[idx].size += d.free[idx+1].size
		d.free = append(d.free[:idx+1], d.free[idx+2:]...)
	}
	if idx > 0 && d.free[idx-1].start+d.free[idx-1].size == d.free[idx].start {
		d.free[idx-1].size += d.free[idx].size
		d.free = append(d.free[:idx], d.free[idx+1:]...)
	}
}

// FreeAll returns a batch of extents.
func (p *Phys) FreeAll(es []Extent) {
	for _, e := range es {
		p.Free(e)
	}
}

// Fragment artificially splits the domain's free space by pinning holes of
// holeSize every strideBytes, returning the pinned extents. It models
// unmovable Linux data structures landing in memory before a late-booting
// LWK (McKernel) can reserve it, which caps the contiguity available for
// 1 GiB pages (paper, section II-D5).
func (p *Phys) Fragment(domain int, holeSize, stride int64) ([]Extent, error) {
	if holeSize <= 0 || stride <= holeSize {
		return nil, fmt.Errorf("mem: Fragment with holeSize %d, stride %d", holeSize, stride)
	}
	d, err := p.domain(domain)
	if err != nil {
		return nil, err
	}
	var pins []Extent
	for at := stride - holeSize; at+holeSize <= d.bound; at += stride {
		e, err := p.allocAt(domain, at, holeSize)
		if err != nil {
			continue // already-allocated region; skip
		}
		pins = append(pins, e)
	}
	return pins, nil
}

// allocAt allocates the specific range [start, start+size) if free.
func (p *Phys) allocAt(domain int, start, size int64) (Extent, error) {
	d, err := p.domain(domain)
	if err != nil {
		return Extent{}, err
	}
	for i, f := range d.free {
		if f.start <= start && start+size <= f.start+f.size {
			d.split(i, start, size)
			return Extent{Domain: domain, Start: start, Size: size}, nil
		}
	}
	return Extent{}, fmt.Errorf("mem: range [%d,%d) not free in domain %d", start, start+size, domain)
}

// checkInvariants verifies the free list is sorted, coalesced, in-bounds
// and consistent with freeSum. Exposed to tests via export_test.go.
func (p *Phys) checkInvariants() error {
	for id, d := range p.domains {
		if d == nil {
			continue
		}
		var sum int64
		var prevEnd int64 = -1
		for i, f := range d.free {
			if f.size <= 0 {
				return fmt.Errorf("domain %d: empty free range at %d", id, i)
			}
			if f.start < 0 || f.start+f.size > d.bound {
				return fmt.Errorf("domain %d: free range out of bounds", id)
			}
			if prevEnd >= 0 && f.start <= prevEnd {
				return fmt.Errorf("domain %d: free list unsorted or uncoalesced at %d", id, i)
			}
			prevEnd = f.start + f.size
			sum += f.size
		}
		if sum != d.freeSum {
			return fmt.Errorf("domain %d: freeSum %d != computed %d", id, d.freeSum, sum)
		}
	}
	return nil
}

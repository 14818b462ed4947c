package mem

import (
	"fmt"
	"slices"
	"sort"

	"mklite/internal/hw"
	"mklite/internal/trace"
)

// VMAKind classifies a virtual memory area. The paper's kernels expose
// per-area placement controls ("fine-grain options to regulate the
// placement of certain process memory areas; e.g., the stack, heap or the
// BSS"), so the kind is part of the model.
type VMAKind int

const (
	VMAAnon VMAKind = iota
	VMAHeap
	VMAStack
	VMABSS
	VMAText
	VMAShared // inter-process shared mapping (MPI intra-node comm)
	VMADevice // device mapping (fabric MMIO)
)

// String names the VMA kind.
func (k VMAKind) String() string {
	switch k {
	case VMAAnon:
		return "anon"
	case VMAHeap:
		return "heap"
	case VMAStack:
		return "stack"
	case VMABSS:
		return "bss"
	case VMAText:
		return "text"
	case VMAShared:
		return "shared"
	case VMADevice:
		return "device"
	default:
		return fmt.Sprintf("VMAKind(%d)", int(k))
	}
}

// Policy governs how a mapping is backed by physical memory.
type Policy struct {
	// Domains is the NUMA preference order; allocation spills down the
	// list as domains fill. Empty means "any domain" is an error — the
	// kernel must always decide. Kernels derive their orders once per
	// boot and share one slice among every policy they hand out, so the
	// order is read-only: mem never writes it, and shared orders have no
	// spare capacity, so appending to one copies.
	Domains []int
	// MaxPage is the largest page size the mapping may use. Both LWKs
	// use 1 GiB "if the size of the mapping allows it"; Linux
	// anonymous memory gets 2 MiB at most (THP).
	MaxPage hw.PageSize
	// Demand defers physical allocation to first touch (Linux default;
	// McKernel fallback mode). When false, the full mapping is
	// physically backed at map time (LWK default).
	Demand bool
	// FallbackDemand makes an upfront mapping degrade to demand paging
	// instead of failing when the preferred domains cannot back it
	// entirely — McKernel's distinctive feature (section II-D3). The
	// current mOS "is more rigid: only physically available memory can
	// be allocated".
	FallbackDemand bool
}

// Backing records one physical extent backing part of a VMA, mapped with a
// specific page size.
type Backing struct {
	Ext  Extent
	Page hw.PageSize
}

// VMA is one virtual memory area of an address space.
type VMA struct {
	Start int64
	Size  int64
	Kind  VMAKind
	Pol   Policy
	// Prot is the area's protection (mprotect).
	Prot Prot

	Backings  []Backing
	Populated int64 // bytes physically backed so far
	Faults    int64 // demand faults taken on this area
	// DemandActive reports that the area is being demand-paged (either
	// by policy or after a fallback).
	DemandActive bool
}

// stateLen is the number of words appendState appends.
func (v *VMA) stateLen() int { return 3 + 4*len(v.Backings) }

// appendState appends what populating or trimming the area reads of it —
// Populated, DemandActive and every backing — to dst. The geometry and
// policy are fixed at Map time and Faults only accumulates, so neither is
// part of the state.
func (v *VMA) appendState(dst []int64) []int64 {
	demand := int64(0)
	if v.DemandActive {
		demand = 1
	}
	dst = append(dst, v.Populated, demand, int64(len(v.Backings)))
	for _, b := range v.Backings {
		dst = append(dst, int64(b.Ext.Domain), b.Ext.Start, b.Ext.Size, int64(b.Page))
	}
	return dst
}

// TouchResult reports what servicing a first-touch traversal did. Where
// the placed bytes landed is not repeated here: per-domain residency is a
// property of the VMA (VMA.DomainsOf), and keeping a map on this result —
// returned once per Touch on the cluster hot path — was the largest
// allocation site in the whole harness.
type TouchResult struct {
	Faults         int64
	BytesPopulated int64
}

// AddrSpace is a process virtual address space. All physical backing comes
// from the node's shared Phys allocator, so address spaces on the same node
// compete for MCDRAM exactly as the paper describes.
type AddrSpace struct {
	phys *Phys
	vmas []*VMA // sorted by Start
	next int64  // bump pointer for new mappings
	sink *trace.Sink
	// exts is populate's reused buffer for the extents of one
	// allocation; they are copied into the VMA's backings at once.
	exts []Extent
	// vmaBuf backs vmas while a process holds a handful of areas
	// (working set, heap, shm window, ...), so that most spaces never
	// allocate their list.
	vmaBuf [4]*VMA

	// TotalFaults counts demand faults across the whole space.
	TotalFaults int64
}

// mapBase is where the bump allocator starts; 1 GiB aligned so any page
// size can be used without extra alignment work.
const mapBase = int64(1) << 40

// NewAddrSpace returns an empty address space drawing from phys.
func NewAddrSpace(phys *Phys) *AddrSpace {
	as := &AddrSpace{phys: phys, next: mapBase}
	as.vmas = as.vmaBuf[:0]
	return as
}

// Phys returns the node allocator the space draws from.
func (as *AddrSpace) Phys() *Phys { return as.phys }

// SetSink attaches a run's trace sink. The sink only observes — placement,
// fault and VMA counters — and never alters behaviour, so a nil sink and an
// attached sink produce byte-identical simulation results.
func (as *AddrSpace) SetSink(s *trace.Sink) { as.sink = s }

// Sink returns the attached trace sink (nil when tracing is off).
func (as *AddrSpace) Sink() *trace.Sink { return as.sink }

// notePlacement records where freshly allocated extents landed: bytes per
// memory kind, plus the paper's "silent spill" — bytes that ended up in DDR4
// while the policy's first preference was an MCDRAM domain.
func (as *AddrSpace) notePlacement(pol Policy, dom int, bytes int64) {
	if bytes <= 0 {
		return
	}
	if as.kindOfDomain(dom) == hw.MCDRAM {
		as.sink.CountKey(trace.KeyMemBytesMCDRAM, bytes)
		return
	}
	as.sink.CountKey(trace.KeyMemBytesDDR4, bytes)
	if len(pol.Domains) > 0 && as.kindOfDomain(pol.Domains[0]) == hw.MCDRAM {
		as.sink.CountKey(trace.KeyMemSpillDDR4Bytes, bytes)
	}
}

// faultKey maps a page size to its interned demand-fault counter key.
func faultKey(p hw.PageSize) trace.Key {
	switch p {
	case hw.Page2M:
		return trace.KeyMemFault2M
	case hw.Page1G:
		return trace.KeyMemFault1G
	default:
		return trace.KeyMemFault4K
	}
}

// VMAs returns the areas sorted by start address.
func (as *AddrSpace) VMAs() []*VMA { return as.vmas }

// Map creates a new VMA of the given size. Size is rounded up to 4 KiB.
// Upfront policies back the area immediately; demand policies leave it
// unpopulated. An upfront mapping that cannot be fully backed fails unless
// FallbackDemand is set, in which case whatever was obtained upfront is
// kept and the rest is demand-paged.
func (as *AddrSpace) Map(size int64, kind VMAKind, pol Policy) (*VMA, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: Map of non-positive size %d", size)
	}
	if len(pol.Domains) == 0 {
		return nil, fmt.Errorf("mem: Map with empty domain preference")
	}
	if pol.MaxPage == 0 {
		pol.MaxPage = hw.Page4K
	}
	if !pol.MaxPage.Valid() {
		return nil, fmt.Errorf("mem: Map with invalid MaxPage %d", pol.MaxPage)
	}
	size = roundUp(size, int64(hw.Page4K))
	v := &VMA{Start: as.next, Size: size, Kind: kind, Pol: pol, Prot: ProtRead | ProtWrite}
	as.next = roundUp(as.next+size, int64(hw.Page1G))

	if pol.Demand {
		v.DemandActive = true
	} else {
		got := as.populate(v, size)
		if got < size {
			if !pol.FallbackDemand {
				// Roll back: free what we grabbed.
				as.releaseBackings(v)
				return nil, fmt.Errorf("mem: cannot back %d bytes upfront (got %d) in domains %v",
					size, got, pol.Domains)
			}
			v.DemandActive = true
			as.sink.CountKey(trace.KeyMemVMADemandFallback, 1)
		}
	}
	as.insert(v)
	as.sink.CountKey(trace.KeyMemVMAMap, 1)
	return v, nil
}

// insert keeps vmas sorted by start.
func (as *AddrSpace) insert(v *VMA) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= v.Start })
	if len(as.vmas) == cap(as.vmas) {
		// Past vmaBuf, or after ReleaseAll, grow by at least four
		// instead of one element at a time.
		as.vmas = slices.Grow(as.vmas, max(4, len(as.vmas)))
	}
	as.vmas = append(as.vmas, nil)
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
}

// Unmap removes the area and returns its physical memory.
func (as *AddrSpace) Unmap(v *VMA) error {
	for i, w := range as.vmas {
		if w == v {
			as.releaseBackings(v)
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			as.sink.CountKey(trace.KeyMemVMAUnmap, 1)
			return nil
		}
	}
	return fmt.Errorf("mem: Unmap of unknown VMA at %#x", v.Start)
}

func (as *AddrSpace) releaseBackings(v *VMA) {
	for _, b := range v.Backings {
		as.phys.Free(b.Ext)
	}
	v.Backings = nil
	v.Populated = 0
}

// populate backs up to want more bytes of v, using the policy's domain
// preference order and the largest page sizes available, returning the
// bytes actually backed.
//
// The traversal order — domains outer, page sizes inner descending —
// produces exactly the behaviour the paper describes: fill MCDRAM with the
// largest pages its contiguity allows, then spill to DDR4, "silently".
func (as *AddrSpace) populate(v *VMA, want int64) int64 {
	counting := as.sink.Counting()
	var got int64
	for _, dom := range v.Pol.Domains {
		if got >= want {
			break
		}
		for _, p := range pageSizesDescending(v.Pol.MaxPage) {
			if got >= want {
				break
			}
			need := (want - got) / int64(p) * int64(p)
			if need == 0 {
				// Tail smaller than this page size: only the
				// smallest page size may map it.
				if p == hw.Page4K {
					need = roundUp(want-got, int64(p))
				} else {
					continue
				}
			}
			exts, n := as.allocUpTo(dom, need, int64(p))
			for _, e := range exts {
				v.Backings = append(v.Backings, Backing{Ext: e, Page: p})
			}
			if counting {
				as.notePlacement(v.Pol, dom, n)
			}
			got += n
		}
	}
	v.Populated += got
	return got
}

// allocUpTo is Phys.AllocUpTo into the space's reused extent buffer. The
// result is valid until the next call.
func (as *AddrSpace) allocUpTo(domain int, size, align int64) ([]Extent, int64) {
	exts, n := as.phys.appendUpTo(as.exts[:0], domain, size, align)
	as.exts = exts
	return exts, n
}

// Touch services a first-touch traversal of [offset, offset+length) of v.
// For populated (upfront) ranges it is free of faults. For demand-paged
// areas it allocates pages (at the policy's page size, falling back to
// smaller sizes and further domains as memory runs out) and counts one
// fault per newly mapped page.
//
// The model treats population as cumulative rather than address-precise:
// the area keeps a high-water mark of populated bytes, which matches the
// streaming first-touch patterns of the HPC workloads being modelled.
func (as *AddrSpace) Touch(v *VMA, offset, length int64) TouchResult {
	return as.TouchWithPage(v, offset, length, v.Pol.MaxPage)
}

// TouchWithPage is Touch with an explicit upper bound on the page size used
// for this traversal. The Linux heap model uses it to express THP's
// alignment sensitivity: an unaligned growth segment faults in 4 KiB pages
// even when the policy would otherwise allow 2 MiB.
func (as *AddrSpace) TouchWithPage(v *VMA, offset, length int64, maxPage hw.PageSize) TouchResult {
	if length <= 0 {
		return TouchResult{}
	}
	end := offset + length
	res := as.demandPopulate(v, end, maxPage, true)
	v.Faults += res.Faults
	as.TotalFaults += res.Faults
	return res
}

// PopulateTo backs v up to end bytes from its base without fault
// accounting: this is kernel-driven population at map/brk time (the LWK
// path), not application-driven faulting.
func (as *AddrSpace) PopulateTo(v *VMA, end int64) TouchResult {
	res := as.demandPopulate(v, end, v.Pol.MaxPage, false)
	res.Faults = 0
	return res
}

// Trim releases physical backing so that at most newEnd bytes stay
// populated, freeing whole extents from the most recently added backwards
// and splitting the boundary extent if needed. It returns the bytes freed.
func (as *AddrSpace) Trim(v *VMA, newEnd int64) int64 {
	if newEnd < 0 {
		newEnd = 0
	}
	var freed int64
	for v.Populated > newEnd && len(v.Backings) > 0 {
		last := &v.Backings[len(v.Backings)-1]
		excess := v.Populated - newEnd
		if last.Ext.Size <= excess {
			as.phys.Free(last.Ext)
			v.Populated -= last.Ext.Size
			freed += last.Ext.Size
			v.Backings = v.Backings[:len(v.Backings)-1]
			continue
		}
		// Partial release: keep the front of the extent, aligned to
		// its page size so the mapping stays well formed.
		granule := int64(last.Page)
		release := excess / granule * granule
		if release == 0 {
			break // sub-page tail: keep the page
		}
		keep := last.Ext.Size - release
		as.phys.Free(Extent{Domain: last.Ext.Domain, Start: last.Ext.Start + keep, Size: release})
		last.Ext.Size = keep
		v.Populated -= release
		freed += release
	}
	return freed
}

// demandPopulate extends v's populated watermark to end (clamped to the
// area size), allocating pages per the policy — capped at maxPage for this
// call — and reporting one fault per page in the result. faulting marks
// application-driven first touch (counted as demand faults in the sink);
// kernel-driven population (PopulateTo) passes false.
func (as *AddrSpace) demandPopulate(v *VMA, end int64, maxPage hw.PageSize, faulting bool) TouchResult {
	res := TouchResult{}
	if maxPage == 0 || !maxPage.Valid() {
		maxPage = v.Pol.MaxPage
	}
	if maxPage > v.Pol.MaxPage {
		maxPage = v.Pol.MaxPage
	}
	if end > v.Size {
		end = v.Size
	}
	if end <= v.Populated {
		return res // already backed
	}
	if !v.DemandActive {
		return res // fully backed upfront
	}
	need := end - v.Populated
	counting := as.sink.Counting()

	// Demand paging allocates at most page-size granules on each fault;
	// page size choice follows the policy but degrades as domains fill.
	for _, dom := range v.Pol.Domains {
		if need <= 0 {
			break
		}
		for _, p := range pageSizesDescending(maxPage) {
			if need <= 0 {
				break
			}
			granule := int64(p)
			pages := need / granule
			if pages == 0 {
				if p != hw.Page4K {
					continue
				}
				pages = 1 // final partial page
			}
			exts, n := as.allocUpTo(dom, pages*granule, granule)
			var faults int64
			for _, e := range exts {
				v.Backings = append(v.Backings, Backing{Ext: e, Page: p})
				faults += e.Size / granule
			}
			res.Faults += faults
			if counting {
				as.notePlacement(v.Pol, dom, n)
				if faulting && faults > 0 {
					as.sink.CountKey(faultKey(p), faults)
				}
			}
			if faulting && faults > 0 {
				as.sink.Observe("mem.fault_pages", faults)
			}
			v.Populated += n
			res.BytesPopulated += n
			need -= n
		}
	}
	return res
}

// BytesByKind returns populated bytes per memory kind, indexed by
// hw.MemKind.
func (as *AddrSpace) BytesByKind() [hw.NumMemKinds]int64 {
	var out [hw.NumMemKinds]int64
	for _, v := range as.vmas {
		for _, b := range v.Backings {
			out[as.kindOfDomain(b.Ext.Domain)] += b.Ext.Size
		}
	}
	return out
}

func (as *AddrSpace) kindOfDomain(id int) hw.MemKind {
	if d := as.phys.lookup(id); d != nil {
		return d.kind
	}
	return hw.DDR4
}

// ReleaseAll unmaps every area (process exit).
func (as *AddrSpace) ReleaseAll() {
	for _, v := range as.vmas {
		as.releaseBackings(v)
	}
	as.vmas = nil
}

// pageSizesDescending lists supported page sizes from max down to 4 KiB.
func pageSizesDescending(max hw.PageSize) []hw.PageSize {
	switch max {
	case hw.Page1G:
		return []hw.PageSize{hw.Page1G, hw.Page2M, hw.Page4K}
	case hw.Page2M:
		return []hw.PageSize{hw.Page2M, hw.Page4K}
	default:
		return []hw.PageSize{hw.Page4K}
	}
}

func roundUp(x, to int64) int64 {
	return (x + to - 1) / to * to
}

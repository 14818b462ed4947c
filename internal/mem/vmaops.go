package mem

import (
	"fmt"

	"mklite/internal/hw"
)

// This file implements the VMA manipulation operations behind mprotect,
// partial munmap, move_pages and mbind: protection tracking, area
// splitting, and physical page migration between NUMA domains.

// Prot is a VMA's protection, mmap-style.
type Prot int

const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// Has reports whether all bits of q are set.
func (p Prot) Has(q Prot) bool { return p&q == q }

// String renders the protection as "rwx" notation.
func (p Prot) String() string {
	b := []byte("---")
	if p.Has(ProtRead) {
		b[0] = 'r'
	}
	if p.Has(ProtWrite) {
		b[1] = 'w'
	}
	if p.Has(ProtExec) {
		b[2] = 'x'
	}
	return string(b)
}

// Protect changes the protection of [offset, offset+length) within v.
// When the range covers the whole area the VMA is updated in place;
// otherwise the area is split so each resulting VMA has uniform
// protection, exactly as mprotect splits Linux VMAs. It returns the VMA
// covering the protected range.
func (as *AddrSpace) Protect(v *VMA, offset, length int64, prot Prot) (*VMA, error) {
	if offset < 0 || length <= 0 || offset+length > v.Size {
		return nil, fmt.Errorf("mem: Protect range [%d,%d) outside area of %d bytes", offset, offset+length, v.Size)
	}
	offset = offset / int64(hw.Page4K) * int64(hw.Page4K)
	length = roundUp(length, int64(hw.Page4K))
	if offset+length > v.Size {
		length = v.Size - offset
	}
	if offset == 0 && length == v.Size {
		v.Prot = prot
		return v, nil
	}
	mid, err := as.splitRange(v, offset, length)
	if err != nil {
		return nil, err
	}
	mid.Prot = prot
	return mid, nil
}

// UnmapRange removes [offset, offset+length) from v, returning its
// physical memory and splitting the area if the range is interior.
func (as *AddrSpace) UnmapRange(v *VMA, offset, length int64) error {
	if offset < 0 || length <= 0 || offset+length > v.Size {
		return fmt.Errorf("mem: UnmapRange [%d,%d) outside area of %d bytes", offset, offset+length, v.Size)
	}
	offset = offset / int64(hw.Page4K) * int64(hw.Page4K)
	length = roundUp(length, int64(hw.Page4K))
	if offset+length > v.Size {
		length = v.Size - offset
	}
	if offset == 0 && length == v.Size {
		return as.Unmap(v)
	}
	mid, err := as.splitRange(v, offset, length)
	if err != nil {
		return err
	}
	return as.Unmap(mid)
}

// splitRange splits v so that [offset, offset+length) becomes its own VMA,
// and returns that middle VMA. Backings are divided by their cumulative
// position (population is sequential from the area base).
func (as *AddrSpace) splitRange(v *VMA, offset, length int64) (*VMA, error) {
	if offset%int64(hw.Page4K) != 0 || length%int64(hw.Page4K) != 0 {
		return nil, fmt.Errorf("mem: split at non-page boundary")
	}
	// Right split first (if the range does not reach the end).
	if end := offset + length; end < v.Size {
		if _, err := as.splitAt(v, end); err != nil {
			return nil, err
		}
	}
	if offset == 0 {
		return v, nil
	}
	right, err := as.splitAt(v, offset)
	if err != nil {
		return nil, err
	}
	return right, nil
}

// splitAt splits v at the given offset, returning the new right-hand VMA.
func (as *AddrSpace) splitAt(v *VMA, offset int64) (*VMA, error) {
	if offset <= 0 || offset >= v.Size {
		return nil, fmt.Errorf("mem: splitAt(%d) outside area of %d bytes", offset, v.Size)
	}
	right := &VMA{
		Start:        v.Start + offset,
		Size:         v.Size - offset,
		Kind:         v.Kind,
		Pol:          v.Pol,
		Prot:         v.Prot,
		DemandActive: v.DemandActive,
	}
	// Divide backings at the offset; backings are ordered by population
	// sequence, which proceeds from the base of the area.
	var cum int64
	var leftBackings, rightBackings []Backing
	for _, b := range v.Backings {
		switch {
		case cum+b.Ext.Size <= offset:
			leftBackings = append(leftBackings, b)
		case cum >= offset:
			rightBackings = append(rightBackings, b)
		default:
			// The boundary falls inside this extent: split it at
			// page granularity of the extent's page size if
			// possible, else at 4 KiB.
			cut := offset - cum
			granule := int64(b.Page)
			if cut%granule != 0 {
				granule = int64(hw.Page4K)
			}
			cut = cut / granule * granule
			if cut > 0 {
				leftBackings = append(leftBackings, Backing{
					Ext:  Extent{Domain: b.Ext.Domain, Start: b.Ext.Start, Size: cut},
					Page: pageFor(granule),
				})
			}
			if rest := b.Ext.Size - cut; rest > 0 {
				rightBackings = append(rightBackings, Backing{
					Ext:  Extent{Domain: b.Ext.Domain, Start: b.Ext.Start + cut, Size: rest},
					Page: pageFor(granule),
				})
			}
		}
		cum += b.Ext.Size
	}
	v.Size = offset
	v.Backings = leftBackings
	right.Backings = rightBackings
	var leftPop, rightPop int64
	for _, b := range leftBackings {
		leftPop += b.Ext.Size
	}
	for _, b := range rightBackings {
		rightPop += b.Ext.Size
	}
	v.Populated = leftPop
	right.Populated = rightPop
	as.insert(right)
	return right, nil
}

func pageFor(granule int64) hw.PageSize {
	switch {
	case granule >= int64(hw.Page1G):
		return hw.Page1G
	case granule >= int64(hw.Page2M):
		return hw.Page2M
	default:
		return hw.Page4K
	}
}

// Migrate moves v's physical backing into the given domain preference
// order (move_pages / mbind with MPOL_MF_MOVE semantics): pages already in
// an acceptable domain stay, the rest are copied to newly allocated pages
// and the old ones freed. It returns the mechanical work (bytes copied
// appear as ZeroedBytes-equivalent copy traffic in Work.CopiedBytes).
func (as *AddrSpace) Migrate(v *VMA, domains []int) (Work, error) {
	if len(domains) == 0 {
		return Work{}, fmt.Errorf("mem: Migrate with no target domains")
	}
	accept := map[int]bool{}
	for _, d := range domains {
		accept[d] = true
	}
	var w Work
	var kept []Backing
	for _, b := range v.Backings {
		if accept[b.Ext.Domain] {
			kept = append(kept, b)
			continue
		}
		// Allocate replacement pages in preference order, preserving
		// the page granularity where the targets allow it.
		moved := false
		for _, d := range domains {
			exts, got := as.phys.AllocUpTo(d, b.Ext.Size, int64(b.Page))
			if got < b.Ext.Size {
				// Partial: roll back this attempt and try the
				// next domain at the same granularity.
				as.phys.FreeAll(exts)
				continue
			}
			for _, e := range exts {
				kept = append(kept, Backing{Ext: e, Page: b.Page})
			}
			as.phys.Free(b.Ext)
			w.CopiedBytes += b.Ext.Size
			w.PagesMapped += b.Ext.Size / int64(b.Page)
			moved = true
			break
		}
		if !moved {
			// No room anywhere acceptable: keep the page where it
			// is (move_pages reports per-page status; we fold it
			// into the failed-bytes count).
			kept = append(kept, b)
			w.FailedBytes += b.Ext.Size
		}
	}
	v.Backings = kept
	return w, nil
}

// DomainsOf returns the set of NUMA domains currently backing v, sorted by
// resident bytes (descending).
func (v *VMA) DomainsOf() map[int]int64 {
	out := map[int]int64{}
	for _, b := range v.Backings {
		out[b.Ext.Domain] += b.Ext.Size
	}
	return out
}

// Remap grows or shrinks a VMA in place (mremap semantics). Growth extends
// the virtual area; for upfront-mapped areas the extension is physically
// backed immediately (LWK behaviour), for demand areas it faults later.
// Shrinking releases the physical tail. Returns the mechanical work.
func (as *AddrSpace) Remap(v *VMA, newSize int64) (Work, error) {
	if newSize <= 0 {
		return Work{}, fmt.Errorf("mem: Remap to non-positive size %d", newSize)
	}
	newSize = roundUp(newSize, int64(hw.Page4K))
	var w Work
	switch {
	case newSize == v.Size:
		return w, nil
	case newSize < v.Size:
		freed := as.Trim(v, newSize)
		v.Size = newSize
		w.FreedBytes = freed
	default:
		// The bump allocator leaves 1 GiB-aligned gaps between areas,
		// so in-place growth is available up to the next area.
		grow := newSize - v.Size
		if next := as.nextAreaStart(v); v.Start+v.Size+grow > next {
			return w, fmt.Errorf("mem: Remap collision: area at %#x cannot grow %d bytes", v.Start, grow)
		}
		v.Size = newSize
		if !v.DemandActive {
			got := as.populate(v, grow)
			if got < grow {
				if !v.Pol.FallbackDemand {
					// Roll back the growth.
					as.Trim(v, newSize-grow)
					v.Size = newSize - grow
					return w, fmt.Errorf("mem: Remap cannot back %d bytes", grow)
				}
				v.DemandActive = true
			}
			w.AllocatedBytes = got
			w.ZeroedBytes = got
			w.PagesMapped = got / int64(hw.Page4K)
		}
	}
	return w, nil
}

// nextAreaStart returns the start of the area following v, or the maximum
// address when v is the last.
func (as *AddrSpace) nextAreaStart(v *VMA) int64 {
	next := int64(1) << 62
	for _, w := range as.vmas {
		if w.Start > v.Start && w.Start < next {
			next = w.Start
		}
	}
	return next
}

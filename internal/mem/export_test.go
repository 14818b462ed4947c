package mem

import "fmt"

// CheckInvariants verifies the free list is sorted, coalesced, in-bounds
// and consistent with freeSum.
func (p *Phys) CheckInvariants() error {
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

// UsedBytes is the bytes allocated in a domain.
func (p *Phys) UsedBytes(domain int) int64 { return p.Capacity(domain) - p.FreeBytes(domain) }

package fleet

import "fmt"

// Allocator tracks the facility's node pool: per-node occupancy counts with
// an oversubscription cap (share). Allocation is deterministic — a job
// receives the lowest-occupancy nodes, ties broken by node index — so the
// facility's placement (and hence the co-tenancy every interference plan is
// scaled by) is a pure function of the scheduling history.
//
// An *Allocator is per-facility-run state, like a *sim.RNG: it must never
// be captured across internal/par worker closures (mklint's parshare
// analyzer rejects the capture). The scheduler allocates before it submits
// a job to the launch pipeline and frees once the job's resolved completion
// time is reached; job closures only ever see the resulting immutable
// launch specs.
type Allocator struct {
	share    int
	occ      []int
	occupied int // nodes with occ > 0
	avail    int // nodes with occ < share
	busy     int // total resident jobs-on-nodes (sum of occ)
}

// NewAllocator returns an allocator over nodes nodes, each admitting up to
// share co-resident jobs (share < 1 is treated as exclusive).
func NewAllocator(nodes, share int) *Allocator {
	if share < 1 {
		share = 1
	}
	return &Allocator{share: share, occ: make([]int, nodes), avail: nodes}
}

// Nodes returns the facility size.
func (a *Allocator) Nodes() int { return len(a.occ) }

// Share returns the per-node job cap.
func (a *Allocator) Share() int { return a.share }

// Occupied returns the number of nodes with at least one resident job —
// the utilization numerator's instantaneous value.
func (a *Allocator) Occupied() int { return a.occupied }

// AvailableNodes returns how many nodes can admit one more job, a count
// Alloc and Free keep current.
func (a *Allocator) AvailableNodes() int { return a.avail }

// Fits reports whether a job needing n distinct nodes can be placed now, in
// constant time.
func (a *Allocator) Fits(n int) bool {
	if n <= 0 || n > len(a.occ) {
		return false
	}
	return a.AvailableNodes() >= n
}

// Alloc places a job on n distinct nodes, preferring empty nodes (lowest
// occupancy first, index order within a tier), and returns the chosen node
// indices together with the launch-time co-tenancy: the maximum number of
// jobs already resident on any chosen node (0 = fully exclusive placement).
func (a *Allocator) Alloc(n int) (nodes []int, cotenancy int, err error) {
	if !a.Fits(n) {
		return nil, 0, fmt.Errorf("fleet: allocation of %d nodes does not fit (%d of %d nodes available)",
			n, a.AvailableNodes(), len(a.occ))
	}
	nodes = make([]int, 0, n)
	for tier := 0; tier < a.share && len(nodes) < n; tier++ {
		for i, o := range a.occ {
			if o == tier {
				nodes = append(nodes, i)
				if o > cotenancy {
					cotenancy = o
				}
				if len(nodes) == n {
					break
				}
			}
		}
	}
	for _, i := range nodes {
		if a.occ[i] == 0 {
			a.occupied++
		}
		a.occ[i]++
		a.busy++
		if a.occ[i] == a.share {
			a.avail--
		}
	}
	return nodes, cotenancy, nil
}

// Free releases a completed job's nodes.
func (a *Allocator) Free(nodes []int) {
	for _, i := range nodes {
		if a.occ[i] == a.share {
			a.avail++
		}
		a.occ[i]--
		a.busy--
		if a.occ[i] == 0 {
			a.occupied--
		}
		if a.occ[i] < 0 {
			panic(fmt.Sprintf("fleet: double free of node %d", i))
		}
	}
}

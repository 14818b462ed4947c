package mos

import (
	"fmt"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
)

// Job is an mOS launch: "mOS allows LWK resources to be divided at the
// time of application launch. This division respects NUMA boundaries and
// binds threads to CPU cores accordingly." Unlike McKernel's proxy-per-
// process model, the division here is rigid: each rank receives a fixed
// slice of every NUMA domain's memory and keeps it for the run.
type Job struct {
	kern  *Kernel
	ranks []*Rank
}

// Rank is one launched process with its core binding and memory budget.
type Rank struct {
	ID   int
	Core int
	Proc *kernel.Process
	// Budget is the rank's per-domain memory slice in bytes.
	Budget map[int]int64
}

// Launch divides the LWK's cores and memory over nRanks processes.
func (k *Kernel) Launch(nRanks int, heapLimit int64) (*Job, error) {
	part := k.Partition()
	if nRanks <= 0 || nRanks > len(part.AppCores) {
		return nil, fmt.Errorf("mos: %d ranks for %d LWK cores", nRanks, len(part.AppCores))
	}
	job := &Job{kern: k}
	stride := len(part.AppCores) / nRanks
	if stride < 1 {
		stride = 1
	}
	for r := 0; r < nRanks; r++ {
		p, err := kernel.NewProcess(k, 2000+r, heapLimit)
		if err != nil {
			return nil, fmt.Errorf("mos: rank %d: %w", r, err)
		}
		budget := map[int]int64{}
		for _, d := range part.Node.Domains {
			budget[d.ID] = k.Phys().Capacity(d.ID) / int64(nRanks)
		}
		job.ranks = append(job.ranks, &Rank{
			ID:     r,
			Core:   part.AppCores[r*stride],
			Proc:   p,
			Budget: budget,
		})
	}
	return job, nil
}

// Ranks returns the launched ranks.
func (j *Job) Ranks() []*Rank { return j.ranks }

// MapWithinBudget maps memory for a rank, enforcing the launch-time
// division: the request fails if it would exceed the rank's remaining
// slice of the preferred domains ("Only physically available memory can be
// allocated" — and on mOS, available means available *to this rank*).
func (j *Job) MapWithinBudget(r *Rank, size int64, kind mem.VMAKind) (*mem.VMA, error) {
	var remaining int64
	pol := j.kern.MapPolicy(kind)
	used := r.Proc.AS.BytesByKind()
	node := j.kern.Partition().Node
	for _, d := range pol.Domains {
		dom, err := node.Domain(d)
		if err != nil {
			continue
		}
		remaining += r.Budget[d] - usedOfKind(used, dom.Mem.Kind, r, node)
	}
	if size > remaining {
		return nil, fmt.Errorf("mos: rank %d budget exhausted: %d requested, %d remaining", r.ID, size, remaining)
	}
	return r.Proc.Mmap(size, kind)
}

// usedOfKind apportions a rank's per-kind usage back to domains; the
// division is per kind because the budget slices every domain equally.
func usedOfKind(used [hw.NumMemKinds]int64, kind hw.MemKind, r *Rank, node *hw.NodeSpec) int64 {
	doms := node.DomainsOfKind(kind)
	if len(doms) == 0 {
		return 0
	}
	return used[kind] / int64(len(doms))
}

// Exit terminates every rank and releases its memory.
func (j *Job) Exit() {
	for _, r := range j.ranks {
		r.Proc.Exit()
	}
	j.ranks = nil
}

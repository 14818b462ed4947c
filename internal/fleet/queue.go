package fleet

import (
	"cmp"
	"fmt"
	"slices"

	"mklite/internal/cluster"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/obs"
	"mklite/internal/sched"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// launch is one job's immutable launch spec: everything a pipeline job
// closure needs to execute the job, decided sequentially by the scheduler
// before submission. Job closures capture the spec, never the Scheduler or
// Allocator that produced it.
type launch struct {
	job    *Job
	kernel kernel.Type
	// sched is the policy's scheduler choice; empty keeps the kernel's
	// boot-time default.
	sched      sched.Kind
	nodes      []int
	cotenancy  int
	plan       *fault.Plan
	backfilled bool
	// evidence is the reservation snapshot that admitted a backfill launch,
	// recorded for the decision log (nil unless Observe.Decisions is on and
	// backfilled is set). Carried here so the launch commit can attach it —
	// the job closures never read it.
	evidence *obs.BackfillEvidence
}

// runJob is the cluster run the launch executes, reporting into sink.
func (l *launch) runJob(sink *trace.Sink) cluster.Job {
	return cluster.Job{
		App:    l.job.App,
		Kernel: l.kernel,
		Sched:  l.sched,
		Nodes:  l.job.Nodes,
		Seed:   l.job.Seed,
		Sink:   sink,
		Faults: l.plan,
	}
}

// profile is the slot-availability timeline the backfill pass plans against:
// free slot counts over piecewise-constant segments, breakpoints ascending,
// the last segment extending to sim.Never. Capacity is counted in slots
// (nodes x share); with Share > 1 a slot fit is an optimistic upper bound on
// a distinct-node fit, so "start now" decisions additionally check the
// Allocator — the profile only sizes reservations, where optimism merely
// costs schedule quality, never correctness. Every call costs O(B) in the B
// breakpoints; the Scheduler owns the buffers and rebuilds them every pass.
type profile struct {
	times []sim.Time
	free  []int
}

// profile rebuilds p as the planning timeline of the snapshot: free slots
// now, rising at each release. The releases must be clamped to now and
// sorted by instant (clampSortReleases); releases at one instant merge
// into one breakpoint.
func (sn availSnapshot) profile(p *profile) *profile {
	p.times = append(p.times[:0], sn.now)
	p.free = append(p.free[:0], sn.freeNow)
	for _, r := range sn.releases {
		last := len(p.times) - 1
		if r.at == p.times[last] {
			p.free[last] += r.slots
			continue
		}
		p.times = append(p.times, r.at)
		p.free = append(p.free, p.free[last]+r.slots)
	}
	return p
}

// release is one future slot release in the profile's input.
type release struct {
	at    sim.Time
	slots int
}

// clampSortReleases readies releases for a profile in place: a job already
// past its walltime limit releases "any moment now", i.e. at now itself,
// and the releases are sorted by instant.
func clampSortReleases(now sim.Time, releases []release) {
	for i := range releases {
		if releases[i].at.Before(now) {
			releases[i].at = now
		}
	}
	slices.SortFunc(releases, func(a, b release) int { return cmp.Compare(a.at, b.at) })
}

// segment returns the index of the segment containing t (times[i] <= t).
func (p *profile) segment(t sim.Time) int {
	lo, hi := 0, len(p.times)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.times[mid].After(t) {
			hi = mid - 1
		} else {
			lo = mid
		}
	}
	return lo
}

// split ensures a breakpoint exists exactly at t (t >= times[0]) and returns
// its index.
func (p *profile) split(t sim.Time) int {
	i := p.segment(t)
	if p.times[i] == t {
		return i
	}
	p.times = append(p.times, 0)
	p.free = append(p.free, 0)
	copy(p.times[i+2:], p.times[i+1:])
	copy(p.free[i+2:], p.free[i+1:])
	p.times[i+1] = t
	p.free[i+1] = p.free[i]
	return i + 1
}

// take reserves slots on [t, t+d).
func (p *profile) take(t sim.Time, d sim.Duration, slots int) {
	end := t.Add(d)
	lo := p.split(t)
	hi := p.split(end)
	for i := lo; i < hi; i++ {
		p.free[i] -= slots
		if p.free[i] < 0 {
			panic(fmt.Sprintf("fleet: profile overdrawn at %v (%d slots short)", p.times[i], -p.free[i]))
		}
	}
}

// fitsAt reports whether slots are free throughout [t, t+d).
func (p *profile) fitsAt(t sim.Time, d sim.Duration, slots int) bool {
	end := t.Add(d)
	for i := p.segment(t); i < len(p.times) && p.times[i].Before(end); i++ {
		if p.free[i] < slots {
			return false
		}
	}
	return true
}

// earliest returns the earliest time >= the profile start at which slots are
// free for d. Availability is piecewise constant, so only breakpoints can be
// starts. One sweep keeps a candidate start, moves it past every segment
// short of slots, and returns it once a breakpoint reaches candidate + d;
// the final segment always has room (every reservation is finite), so the
// sweep ends at the last breakpoint at the latest.
func (p *profile) earliest(d sim.Duration, slots int) sim.Time {
	c := 0
	end := p.times[0].Add(d)
	for i, t := range p.times {
		if !t.Before(end) {
			break
		}
		if p.free[i] < slots {
			c = i + 1
			if c == len(p.times) {
				panic(fmt.Sprintf("fleet: no feasible start for %d slots (capacity exceeded?)", slots))
			}
			end = p.times[c].Add(d)
		}
	}
	return p.times[c]
}

// schedulePass decides which queued jobs start at the current virtual
// instant: the FIFO prefix that fits, then — when the head blocks and
// Config.Backfill is set — conservative backfill over the remaining queue.
//
// The backfill plan is rebuilt from scratch every pass (no reservations
// persist between events): the head receives a reservation at its earliest
// feasible start on the slot-availability profile, and up to BackfillDepth
// queued jobs behind it are examined in arrival order. A candidate starts
// now only if it fits now (allocator and profile) for its full walltime
// limit with every earlier reservation intact — the conservative-backfill
// invariant: backfilled jobs never delay the reserved start of any job ahead
// of them in the queue. Candidates that cannot start receive reservations of
// their own, which later candidates must also respect. The invariant is
// re-verified after the pass by recomputing the head's earliest start over
// the launches actually made (checkHeadInvariant); a violation is a
// scheduler bug and panics. The returned launches live in a buffer the next
// pass reuses.
func (s *Scheduler) schedulePass() []*launch {
	if len(s.queue) == 0 {
		return nil
	}
	out := s.launchScratch[:0]
	snap := s.snapshot()
	prof := snap.profile(&s.passProf)

	// When the decision log is on, mirror the reservation plan the pass
	// builds (head first, then each examined non-starting candidate) so a
	// backfill launch can carry the exact evidence that admitted it. Pure
	// bookkeeping — the plan itself is unchanged.
	recording := s.dlog != nil
	reservations := s.resScratch[:0]
	headJob := -1

	remaining := s.queueScratch[:0]
	headBlocked := false
	headStart := sim.Never
	examined := 0
	for qi, j := range s.queue {
		if headBlocked && (!s.cfg.Backfill || examined >= s.cfg.BackfillDepth) {
			remaining = append(remaining, s.queue[qi:]...)
			break
		}
		if !headBlocked {
			if s.alloc.Fits(j.Nodes) {
				out = append(out, s.newLaunch(j, false))
				prof.take(s.clock, j.WallLimit, j.Nodes)
				continue
			}
			headBlocked = true
			headStart = prof.earliest(j.WallLimit, j.Nodes)
			prof.take(headStart, j.WallLimit, j.Nodes)
			remaining = append(remaining, j)
			examined++
			if recording {
				headJob = j.ID
				reservations = append(reservations, obs.Reservation{
					Job: j.ID, StartNs: int64(headStart), WallNs: int64(j.WallLimit), Slots: j.Nodes})
			}
			continue
		}
		examined++
		if s.alloc.Fits(j.Nodes) && prof.fitsAt(s.clock, j.WallLimit, j.Nodes) {
			l := s.newLaunch(j, true)
			if recording {
				l.evidence = &obs.BackfillEvidence{
					HeadJob:      headJob,
					HeadStartNs:  int64(headStart),
					Reservations: append([]obs.Reservation(nil), reservations...),
				}
			}
			out = append(out, l)
			prof.take(s.clock, j.WallLimit, j.Nodes)
			continue
		}
		t := prof.earliest(j.WallLimit, j.Nodes)
		prof.take(t, j.WallLimit, j.Nodes)
		remaining = append(remaining, j)
		if recording {
			reservations = append(reservations, obs.Reservation{
				Job: j.ID, StartNs: int64(t), WallNs: int64(j.WallLimit), Slots: j.Nodes})
		}
	}
	s.queue, s.queueScratch = remaining, s.queue
	s.resScratch = reservations
	s.launchScratch = out

	if headBlocked {
		s.checkHeadInvariant(snap, out, headStart)
	}
	return out
}

// checkHeadInvariant recomputes the blocked head's earliest start over the
// pass-start availability plus the launches this pass actually made — no
// reservations, just committed work — and panics if it moved past the
// reservation the backfill plan promised. This is the testable backfill
// invariant from docs/FLEET.md. It builds its profile in its own buffer, so
// nothing the pass did to its profile reaches the check.
func (s *Scheduler) checkHeadInvariant(snap availSnapshot, out []*launch, headStart sim.Time) {
	head := s.queue[0]
	prof := snap.profile(&s.checkProf)
	for _, l := range out {
		prof.take(s.clock, l.job.WallLimit, l.job.Nodes)
	}
	if got := prof.earliest(head.WallLimit, head.Nodes); got.After(headStart) {
		panic(fmt.Sprintf("fleet: backfill delayed the queue head: reserved start %v, now %v",
			headStart, got))
	}
}

// availSnapshot is the facility's slot availability at a pass's start:
// capacity minus resident jobs, with each running job releasing its slots at
// its walltime-limit reservation end. Actual completions may come earlier
// (the scheduler learns exact end times when it resolves a job's result but
// plans against the limit, like a real conservative-backfill scheduler) — an early finish only
// makes reservations conservative, never wrong. The snapshot is taken before
// the pass allocates anything, so the invariant check can replay the pass's
// launches against unmutated availability. Its releases are clamped to now
// and sorted, once per pass, in a buffer the next pass reuses.
type availSnapshot struct {
	now      sim.Time
	freeNow  int
	releases []release
}

// snapshot captures the current availability.
func (s *Scheduler) snapshot() availSnapshot {
	capacity := s.alloc.Nodes() * s.alloc.Share()
	releases := s.relScratch[:0]
	for _, r := range s.running {
		releases = append(releases, release{at: r.start.Add(r.job.WallLimit), slots: r.job.Nodes})
	}
	clampSortReleases(s.clock, releases)
	s.relScratch = releases
	return availSnapshot{now: s.clock, freeNow: capacity - s.alloc.busy, releases: releases}
}

// newLaunch fixes a job's launch decisions: the policy's kernel and
// scheduler choice, the allocator's nodes and the co-tenancy-scaled
// interference plan.
func (s *Scheduler) newLaunch(j *Job, backfilled bool) *launch {
	ch := s.cfg.Policy.Select(j)
	nodes, cotenancy, err := s.alloc.Alloc(j.Nodes)
	if err != nil {
		// schedulePass only calls after Fits; reaching here is a bug.
		panic(err)
	}
	return &launch{
		job:        j,
		kernel:     ch.Kernel,
		sched:      ch.Sched,
		nodes:      nodes,
		cotenancy:  cotenancy,
		plan:       s.interference[cotenancy],
		backfilled: backfilled,
	}
}

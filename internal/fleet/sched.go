package fleet

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"mklite/internal/cluster"
	"mklite/internal/fault"
	"mklite/internal/metrics"
	"mklite/internal/obs"
	"mklite/internal/par"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// Scheduler is one facility run's mutable state: the virtual clock, the
// queue, the running set, the node allocator and the metrics being
// accumulated. Like *sim.RNG and *trace.Sink it is strictly per-run,
// single-goroutine state — the event loop is sequential, and the only
// concurrency is the internal/par pipeline that executes launched jobs
// while the loop runs ahead of them. Its job closures receive immutable
// launch specs and must never capture the Scheduler or its Allocator
// (mklint's parshare analyzer rejects the capture).
type Scheduler struct {
	cfg   Config
	alloc *Allocator

	clock   sim.Time
	queue   []*Job
	running []*runningJob

	// pipe executes launched jobs in launch order; pending holds the
	// launched jobs whose results the loop has not needed yet, in launch
	// order (every one is also in running).
	pipe    *par.Pipe[runOut]
	pending []*runningJob
	// images is the node image store the run's jobs run on (Config.Images,
	// or a store of the run's own), budget is the timestep budget every
	// image is prepared for and counting whether the jobs count.
	images   *cluster.Images
	budget   int
	counting bool
	// interference holds, for each co-tenancy, the interference plan of
	// every launch at it (interferenceFor): one plan per level, which the
	// store numbers once.
	interference []*fault.Plan

	// busyNodeNs accumulates occupied-nodes x virtual-time, the
	// utilization numerator (int64 node-nanoseconds).
	busyNodeNs int64
	lastEnd    sim.Time

	reg      *metrics.Registry
	counters *trace.Counters // fleet.* + merged per-job counters (cfg.Counters)

	// Observability backends (cfg.Observe) — passive, per-run, nil = off.
	// Like reg and counters they are scheduler-side state, fed by the
	// launch and resolve commits on the loop's goroutine, never by the job
	// closures. The job-counter view retains each job's own counter set and
	// namespaces it at result time — building the job/<id>/<name> map
	// inline would put ~10k map inserts' worth of allocation between
	// launches, polluting the simulator's caches (the same reason
	// obs.Timeline defers its event expansion).
	tl       *obs.Timeline
	dlog     *obs.DecisionLog
	jobSnaps []jobCounterSnap // per-job counters (Observe.JobCounters)
	// resScratch is the reservation-mirror buffer schedulePass fills when
	// the decision log is on — reused across passes (each backfill launch
	// copies its own evidence snapshot) so the mirror does not reallocate
	// on every clock event.
	resScratch []obs.Reservation
	// The backfill pass's other buffers, each rebuilt in place by every
	// schedulePass: the snapshot's releases, the pass's profile, the
	// head-invariant check's own profile (never the pass's), the queue's
	// spare backing array and the pass's launches.
	relScratch    []release
	passProf      profile
	checkProf     profile
	queueScratch  []*Job
	launchScratch []*launch

	backfilled int
	interfered int
	degraded   int
	kernelJobs map[string]int
	outcomes   []JobOutcome
	launched   int
}

// runningJob is one resident job: its launch decisions, its provable
// earliest completion, its pending result and — once resolved — its actual
// completion.
type runningJob struct {
	job   *Job
	nodes []int
	start sim.Time
	// minEnd is start + cluster.MinResident: the job cannot complete
	// before it, so the event loop may run ahead to any instant strictly
	// earlier without the job's result.
	minEnd sim.Time
	// end is the completion time, sim.Never until the result is resolved.
	end sim.Time
	fut *par.Future[runOut]
	// evSlot is the timeline merge slot reserved at launch for the job's
	// event ring (-1 when job events are off).
	evSlot int
}

// jobCounterSnap retains one job's own counter set (built inside the job
// closure) until result time, when the job/<id>/<name> view is assembled.
type jobCounterSnap struct {
	id int
	c  *trace.Counters
}

// newScheduler builds the per-run state for cfg (already normalized).
func newScheduler(cfg Config) *Scheduler {
	s := &Scheduler{
		cfg:        cfg,
		alloc:      NewAllocator(cfg.Nodes, cfg.Share),
		reg:        metrics.NewRegistry(),
		kernelJobs: map[string]int{},
		images:     cfg.Images,
		budget:     max(cfg.MaxTimesteps, calibrationTimesteps),
		counting:   cfg.Counters || cfg.Observe.JobCountersOn(),
	}
	if s.images == nil {
		s.images = cluster.NewImages()
	}
	s.interference = make([]*fault.Plan, cfg.Share)
	for c := range s.interference {
		s.interference[c] = interferenceFor(cfg.Interference, c)
	}
	if cfg.Counters {
		s.counters = trace.NewCounters()
	}
	if cfg.PerJob {
		s.outcomes = make([]JobOutcome, cfg.Jobs)
	}
	if o := cfg.Observe; o.Enabled() {
		s.tl = o.Timeline
		s.dlog = o.Decisions
	}
	return s
}

// run drives the stream to completion. The loop advances the virtual clock
// to the next event — an arrival or a resolved completion — processes
// completions then arrivals at that instant, and submits every job the
// scheduling pass admits to the launch pipeline without waiting for it.
//
// This is conservative lookahead: a pending job cannot complete before its
// minEnd, so every event strictly earlier than the earliest pending minEnd
// is decided exactly as if all results were known. When some pending job's
// minEnd is at or before the next event, its result (and, to commit in
// launch order, every earlier pending result) is resolved first and the
// next event re-derived. Which jobs are resolved when depends only on the
// schedule, never on which results happen to be ready, so the run is
// byte-identical at any pipeline width.
func (s *Scheduler) run(stream []*Job) (*Result, error) {
	if c, ok := s.cfg.Policy.(calibrator); ok {
		if err := c.calibrate(s.images, s.counting, s.budget); err != nil {
			return nil, err
		}
	}
	s.pipe = par.NewPipe[runOut](s.cfg.Workers)
	defer s.pipe.Close()

	next := 0
	for next < len(stream) || len(s.queue) > 0 || len(s.running) > 0 {
		t := sim.Never
		if next < len(stream) {
			t = stream[next].Arrival
		}
		for _, r := range s.running {
			if r.end.Before(t) {
				t = r.end
			}
		}
		if due := s.firstDue(t); due >= 0 {
			if err := s.resolve(due); err != nil {
				return nil, err
			}
			continue
		}
		if t == sim.Never {
			// Queue non-empty with nothing running and nothing arriving:
			// the head must fit an empty facility (normalize caps
			// MaxJobNodes at Nodes), so this is unreachable.
			return nil, fmt.Errorf("fleet: scheduler stuck with %d queued jobs", len(s.queue))
		}

		s.busyNodeNs += int64(s.alloc.Occupied()) * int64(t.Sub(s.clock))
		s.clock = t

		s.completeAt(t)
		for next < len(stream) && stream[next].Arrival == t {
			s.queue = append(s.queue, stream[next])
			next++
		}
		if s.counters != nil {
			s.counters.Add("fleet.sched_passes", 1)
		}
		if batch := s.schedulePass(); len(batch) > 0 {
			for _, l := range batch {
				s.launch(l)
			}
			if s.counters != nil {
				s.counters.Add("fleet.launch_batches", 1)
				s.counters.Max("fleet.batch_max", int64(len(batch)))
			}
		}
		// One facility-lane sample per clock event, after the pass's
		// launches commit: the queue depth and node occupancy the event
		// left behind.
		s.tl.Sample(int64(t), len(s.queue), s.alloc.Occupied())
	}
	return s.result()
}

// firstDue returns the launch-order index of the first pending job that
// may complete at or before t (minEnd <= t), or -1 if none can.
func (s *Scheduler) firstDue(t sim.Time) int {
	for i, r := range s.pending {
		if !r.minEnd.After(t) {
			return i
		}
	}
	return -1
}

// completeAt frees every job ending at t, in job-ID order so the allocator's
// occupancy history — and with it every later co-tenancy draw — is a pure
// function of the schedule, not of the running list's internal order.
// Pending jobs carry end == sim.Never and are never due here: the loop only
// reaches t once every job whose minEnd is at or before t is resolved.
func (s *Scheduler) completeAt(t sim.Time) {
	var done []*runningJob
	kept := s.running[:0]
	for _, r := range s.running {
		if r.end == t {
			done = append(done, r)
		} else {
			kept = append(kept, r)
		}
	}
	s.running = kept
	slices.SortFunc(done, func(a, b *runningJob) int { return a.job.ID - b.job.ID })
	for _, r := range done {
		s.alloc.Free(r.nodes)
		s.tl.JobEnd(int64(t), r.job.ID)
		if s.counters != nil {
			s.counters.Add("fleet.jobs_completed", 1)
		}
	}
}

// runOut is one job's return: the cluster result plus the job's own
// counters and event ring (created inside the job closure, merged in
// launch order when the job is resolved).
type runOut struct {
	res      cluster.Result
	counters *trace.Counters
	events   *trace.Events
}

// budgeted returns j as the run's store keys it: with a copy of its
// application prepared for budget steps, of which its run takes a Steps
// view.
func budgeted(j cluster.Job, budget int) cluster.Job {
	app := *j.App
	app.Timesteps = budget
	j.App = &app
	return j
}

// execute runs one launched job on the view at its own budget of its
// image from imgs, prepared for budget steps. It reads only the immutable
// launch spec and the store, and builds its own counters and event ring,
// so its outcome depends only on the spec and the job's own seed — never
// on when, or on which worker, it runs.
func execute(l *launch, imgs *cluster.Images, budget int, counting, eventing bool, ringCap int) (runOut, error) {
	var c *trace.Counters
	if counting {
		c = trace.NewCounters()
	}
	var ev *trace.Events
	if eventing {
		ev = trace.NewEvents(ringCap)
	}
	sink := trace.NewSink(c, ev)
	img, err := imgs.Image(budgeted(l.runJob(sink), budget))
	if err == nil {
		img, err = img.Steps(l.job.Timesteps)
	}
	var res cluster.Result
	if err == nil {
		res, err = img.Run(context.TODO(), l.job.Seed, sink)
	}
	if err != nil {
		return runOut{}, fmt.Errorf("fleet: job %d (%s on %s): %w",
			l.job.ID, l.job.App.Name, kernelName(l.kernel), err)
	}
	return runOut{res: res, counters: c, events: ev}, nil
}

// launch submits one admitted job to the pipeline and commits everything
// that does not depend on its result: the running entry with its minEnd,
// the wait histogram, the launch counts and fleet.* counters, the outcome
// record's launch fields, the decision record and the timeline span — plus
// the job-events slot, reserved now so the timeline's op order is the
// launch order whenever the ring arrives. The job closure captures only
// the launch spec and plain flags, never the Scheduler or the obs backends.
func (s *Scheduler) launch(l *launch) {
	counting := s.counting
	eventing := s.cfg.Observe.JobEventsOn()
	ringCap := s.cfg.Observe.JobEventRingCap()
	imgs, budget := s.images, s.budget
	fut := s.pipe.Submit(func() (runOut, error) {
		return execute(l, imgs, budget, counting, eventing, ringCap)
	})

	r := &runningJob{
		job:    l.job,
		nodes:  l.nodes,
		start:  s.clock,
		minEnd: s.clock.Add(cluster.MinResident(l.runJob(nil))),
		end:    sim.Never,
		fut:    fut,
		evSlot: -1,
	}
	s.running = append(s.running, r)
	s.pending = append(s.pending, r)

	wait := s.clock.Sub(l.job.Arrival)
	s.reg.Observe("fleet.wait_ns", int64(wait))
	s.launched++
	s.kernelJobs[kernelName(l.kernel)]++
	if l.backfilled {
		s.backfilled++
	}
	if l.plan != nil {
		s.interfered++
	}
	if s.counters != nil {
		s.counters.Add("fleet.jobs_launched", 1)
		if l.backfilled {
			s.counters.Add("fleet.jobs_backfilled", 1)
		}
		if l.plan != nil {
			s.counters.Add("fleet.jobs_interfered", 1)
		}
	}
	if s.outcomes != nil {
		s.outcomes[l.job.ID] = JobOutcome{
			ID:         l.job.ID,
			App:        l.job.App.Name,
			Kernel:     kernelName(l.kernel),
			Sched:      string(l.sched),
			Nodes:      l.job.Nodes,
			Timesteps:  l.job.Timesteps,
			ArrivalSec: l.job.Arrival.Seconds(),
			StartSec:   s.clock.Seconds(),
			WaitSec:    wait.Seconds(),
			Backfilled: l.backfilled,
			Cotenancy:  l.cotenancy,
		}
	}
	if s.tl != nil {
		name := fmt.Sprintf("job %d %s/%s", l.job.ID, l.job.App.Name, kernelName(l.kernel))
		s.tl.JobStart(int64(s.clock), l.job.ID, name, l.nodes, map[string]int64{
			"nodes":     int64(l.job.Nodes),
			"timesteps": int64(l.job.Timesteps),
			"cotenancy": int64(l.cotenancy),
		})
		if eventing {
			r.evSlot = s.tl.ReserveJobEvents(l.job.ID, int64(s.clock))
		}
	}
	if s.dlog != nil {
		d := obs.Decision{
			Job:       l.job.ID,
			TimeNs:    int64(s.clock),
			Kind:      obs.KindFIFO,
			Kernel:    kernelName(l.kernel),
			Nodes:     append([]int(nil), l.nodes...),
			Cotenancy: l.cotenancy,
		}
		if l.backfilled {
			d.Kind = obs.KindBackfill
			d.Backfill = l.evidence
		}
		s.dlog.Record(d)
	}
}

// resolve waits for the pending jobs up to and including launch-order
// index last and commits their results in launch order: the completion
// time, the makespan, the degraded count, the counter merge, the per-job
// counter snapshot, the outcome's elapsed time and FOM, and the job's
// event ring. The first failing job in launch order fails the run; the
// same job fails first at every width, because which jobs are resolved is
// a function of the schedule alone.
func (s *Scheduler) resolve(last int) error {
	for i, r := range s.pending[:last+1] {
		s.pending[i] = nil
		out, err := r.fut.Wait()
		r.fut = nil
		if err != nil {
			return err
		}
		resident := out.res.Setup + out.res.Elapsed
		r.end = r.start.Add(resident)
		if r.end.Before(r.minEnd) {
			// MinResident is a proof obligation of the cluster model: an
			// earlier completion means the loop may already have decided
			// events past it without this job's release.
			panic(fmt.Sprintf("fleet: job %d completed at %v, before its lower bound %v",
				r.job.ID, r.end, r.minEnd))
		}
		if r.end.After(s.lastEnd) {
			s.lastEnd = r.end
		}
		if out.res.Degraded {
			s.degraded++
		}
		if s.counters != nil {
			s.counters.Merge(out.counters)
		}
		if s.cfg.Observe.JobCountersOn() && out.counters != nil {
			s.jobSnaps = append(s.jobSnaps, jobCounterSnap{id: r.job.ID, c: out.counters})
		}
		if s.outcomes != nil {
			o := &s.outcomes[r.job.ID]
			o.ElapsedSec = resident.Seconds()
			o.FOM = out.res.FOM
		}
		if out.events != nil {
			s.tl.FillJobEvents(r.evSlot, out.events.Snapshot(), out.events.Dropped())
		}
	}
	s.pending = s.pending[last+1:]
	return nil
}

// result assembles the facility metrics once the stream has drained.
func (s *Scheduler) result() (*Result, error) {
	r := &Result{
		Policy:        s.cfg.Policy.Name(),
		FacilityNodes: s.cfg.Nodes,
		Share:         s.cfg.Share,
		Jobs:          s.launched,
		Backfilled:    s.backfilled,
		Interfered:    s.interfered,
		KernelJobs:    map[string]int{},
		PerJob:        s.outcomes,
	}
	maps.Copy(r.KernelJobs, s.kernelJobs)

	makespan := s.lastEnd
	r.MakespanSec = makespan.Seconds()
	if makespan > 0 {
		r.JobsPerHour = float64(s.launched) / (makespan.Seconds() / 3600)
		r.UtilizationPct = 100 * float64(s.busyNodeNs) /
			(float64(s.cfg.Nodes) * float64(makespan))
	}

	if h := s.reg.Histogram("fleet.wait_ns"); h != nil {
		r.WaitP50Sec = h.Percentile(50) / float64(sim.Second)
		r.WaitP99Sec = h.Percentile(99) / float64(sim.Second)
		r.WaitMaxSec = float64(h.Max()) / float64(sim.Second)
		r.WaitMeanSec = h.Mean() / float64(sim.Second)
	}

	if s.counters != nil {
		r.Counters = s.counters.Map()
	}
	r.DegradedJobs = s.degraded
	if len(s.jobSnaps) > 0 {
		total := 0
		for _, sn := range s.jobSnaps {
			total += sn.c.Len()
		}
		jc := make(map[string]int64, total)
		for _, sn := range s.jobSnaps {
			prefix := "job/" + strconv.Itoa(sn.id) + "/"
			sn.c.Each(func(name string, v int64) {
				jc[prefix+name] = v
			})
		}
		r.JobCounters = jc
	}
	if s.cfg.SLO != nil {
		rep, err := s.cfg.SLO.Eval(r.SLOValues())
		if err != nil {
			return nil, err
		}
		r.SLO = rep
	}
	return r, nil
}

package cluster

import (
	"context"
	"fmt"

	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/mpi"
	"mklite/internal/noise"
	"mklite/internal/sched"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// Image is one job's node, booted and laid out, with its heap phase
// replayed to its fixed point: everything a run computes that its seed
// never reaches. Booting a kernel, laying out a node and replaying brk
// traces draw no random numbers, so a run's seed enters only through the
// scheduler state, the fault injector and the noise draws. Every
// repetition of a measurement therefore runs against one image, and so
// does every job of one shape in a facility run: an image prepared for T
// steps runs the job for any T′ ≤ T of them through the view Steps
// returns, exactly as an image prepared for T′ would. Sched returns the
// view under another scheduling policy in the same way, and Nodes the view
// on another node count whose ranks lay out the same node (SameLayout), so
// one image serves every node count of a weak-scaled application's sweep.
// The views compose in any order.
//
// An image is read-only once Prepare returns: Run writes nothing in it, so
// any number of Run calls may share one image concurrently. It holds no
// trace sink and no RNG. What node setup and the heap phase emit is
// recorded when the preparing job's sink counts or observes, and each run
// plays the recording into its own sink.
type Image struct {
	// j is the prepared job: normalized and validated, with its
	// scheduling override and the Linux daemon storm applied, and with
	// neither seed nor sink. Its App.Timesteps is the run's length, which
	// a view shortens.
	j    Job
	k    kernel.Kernel
	comm *mpi.Comm
	// pol is the job's scheduling policy: the booted kernel's, or a
	// view's (Sched). Nothing after boot reads the kernel's own.
	pol sched.Policy
	// prof is the kernel's noise profile with its quantile tables and its
	// max-of-K tables built; each run draws from a view of it
	// (CloneTables), which shares its warmed sources.
	prof *noise.Profile
	// tableFirst holds, for each of prof's max-of-K tables in the order
	// Tabulate attached them, the first step whose window it is.
	tableFirst []int
	// store is the table store of the Images store the image came from,
	// or nil; views and degraded completion warm their profiles in it.
	store *noise.Store
	// plan is what every step takes from the job and the node without a
	// draw.
	plan stepPlan

	// counting and observing record which emissions the image carries.
	counting, observing bool
	// setupEmits is what node setup emitted.
	setupEmits *emissions

	// setup, shmFault and memMax are the node's untimed setup cost, the
	// timed first touch of its MPI windows and its slowest rank's
	// per-step memory time.
	setup, shmFault, memMax sim.Duration
	// demandRanks is the node's demand-paged rank count.
	demandRanks int
	// heap is the recorded heap phase (no steps without a brk trace),
	// with the node's accounting after each recorded step.
	heap heapRecord
}

// Prepare boots the job's kernel, lays its node out and replays its heap
// phase to the fixed point. The job's Seed is ignored. Its Sink only says
// what the image records: the counters setup and the heap phase emit when
// it counts, their observations when it observes. Prepare emits nothing
// into it. The image and its views fit their Ψ grids and build their noise
// tables for themselves; images that are to share them come from one
// Images store.
func Prepare(ctx context.Context, j Job) (*Image, error) {
	return prepareJob(ctx, j, j.Sink.Counting(), j.Sink.Observing(), nil)
}

// prepareJob is Prepare for an image that records counters and
// observations as counting and observing say, its profile warmed in store
// (nil for a store of its own): it normalizes and validates j, applies its
// scheduling override and the Linux daemon storm, and prepares the result.
func prepareJob(ctx context.Context, j Job, counting, observing bool, store *noise.Store) (*Image, error) {
	j = j.normalized()
	if j.App == nil {
		return nil, fmt.Errorf("cluster: job without application")
	}
	if err := j.App.Validate(); err != nil {
		return nil, err
	}
	if j.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: bad node count %d", j.Nodes)
	}
	if err := j.Faults.Validate(); err != nil {
		return nil, err
	}
	if j.Sched != "" {
		kind, err := sched.Parse(string(j.Sched))
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		j = j.withSched(kind)
	}
	if p := j.Faults; !p.Empty() && p.Storm != nil && j.Kernel == kernel.TypeLinux {
		// The daemon storm lands on Linux's application cores directly;
		// the LWKs feel it only through inflated offload round trips
		// (handled in runSteps). Copy the config — j.Linux may be the
		// caller's.
		cfg := *j.Linux
		cfg.ExtraNoise = append(append([]noise.Source{}, cfg.ExtraNoise...),
			noise.Storm(p.Storm.Period, p.Storm.Burst, p.Storm.CV))
		j.Linux = &cfg
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: run cancelled: %w", err)
	}
	j.Seed, j.Sink = 0, nil
	return prepare(ctx, j, counting, observing, store)
}

// withSched returns the job under scheduling policy kind: a per-job
// override, copied into each OS config — they may be the caller's — so that
// whichever kernel boots honours it.
func (j Job) withSched(kind sched.Kind) Job {
	lin, mck, mosCfg := *j.Linux, *j.McK, *j.MOS
	lin.Sched, mck.Sched, mosCfg.Sched = kind, kind, kind
	j.Linux, j.McK, j.MOS = &lin, &mck, &mosCfg
	j.Sched = kind
	return j
}

// prepare builds the image of a job prepareJob has normalized and adjusted,
// its profile warmed in store (nil for a store of its own).
func prepare(ctx context.Context, j Job, counting, observing bool, store *noise.Store) (*Image, error) {
	k, err := bootKernel(j)
	if err != nil {
		return nil, err
	}
	comm, err := mpi.New(j.Fabric, j.Nodes, j.App.RanksPerNode)
	if err != nil {
		return nil, err
	}
	img := &Image{j: j, k: k, comm: comm, prof: k.Noise(), store: store,
		counting: counting, observing: observing,
		setupEmits: newEmissions(counting, observing)}
	store.Warm(img.prof)

	js := j
	js.Sink = img.setupEmits.sink()
	ns, err := setupNode(k, js)
	if err != nil {
		return nil, err
	}
	img.setup, img.shmFault, img.memMax = ns.setup, ns.shmFault, ns.memMax

	// The brk trace depends only on the node count: one lookup serves
	// every rank of every step.
	var heapOps []int64
	if j.App.HeapOpsPerStep != nil {
		heapOps = j.App.HeapOpsPerStep(j.Nodes)
	}
	start := nodeAcctOf(ns)
	if heapOps != nil {
		r := newHeapReplay(ns, heapOps, k.SyscallTime(kernel.SysBrk), k.Costs(), counting, observing)
		if err := r.run(ctx, j.App.Timesteps); err != nil {
			return nil, err
		}
		img.heap = r.rec
	}
	img.heap.start = start
	img.demandRanks = countDemandRanks(ns)
	// Every step's window is known now that the heap phase is recorded:
	// tabulate the per-rank detour law at each one that gets a table.
	img.plan = newStepPlan(j, k, comm)
	img.setPolicy(k.Sched(), img.prof)
	// Nothing the image keeps may reach a sink, the kernel included.
	for _, rs := range ns.ranks {
		rs.as.SetSink(nil)
	}
	return img, nil
}

// setPolicy sets what of the image its scheduling policy decides: the
// policy, whether gang windows align the ranks, and the noise profile with
// its max-of-K tables, built at the windows where the policy has a step
// draw a max over ranks and the profile gets a table (tableWindows).
// Prepare and Sched both end here, so a view cannot drift from an image
// prepared under its policy. prof must be warm and hold no tables; the
// image takes it.
func (img *Image) setPolicy(pol sched.Policy, prof *noise.Profile) {
	img.pol = pol
	img.plan.gangAligned = pol.Kind() == sched.Gang
	img.prof = prof
	var windows []sim.Duration
	windows, img.tableFirst = img.tableWindows()
	img.prof.Tabulate(windows, img.tableRanks())
}

// Sched returns a view of the image that runs the job under scheduling
// policy kind: the image itself when kind is its policy. A run of the view
// equals a run of an image prepared with Job.Sched set to kind, in its
// Result and in everything it emits, since a policy reaches nothing a boot
// lays out but the policy itself and, on Linux, the noise profile
// (tickless drops the tick-class sources). The view's job carries kind, so
// degraded completion runs under it; its profile is Linux's under
// kind, or the LWK's own, with the max-of-K tables built again for its
// policy. The view shares everything else with the image and is read-only
// like it.
func (img *Image) Sched(kind sched.Kind) (*Image, error) {
	kind, err := sched.Parse(string(kind))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if kind == img.pol.Kind() {
		return img, nil
	}
	pol, err := kernel.NewPolicy(kind, img.k.Costs())
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	v := *img
	v.j = img.j.withSched(kind)
	// Linux's profile differs between two policies only in the tick
	// sources tickless drops; otherwise the view keeps the image's sources.
	prof := img.prof.CloneTables(0)
	if img.k.Type() == kernel.TypeLinux && (kind == sched.Tickless) != (img.pol.Kind() == sched.Tickless) {
		prof = linuxos.NoiseProfile(*v.j.Linux)
		img.store.Warm(prof)
	}
	v.setPolicy(pol, prof)
	return &v, nil
}

// Nodes returns a view of the image that runs the job on n nodes: the image
// itself when n is its node count, an error when n is below 1 or when the
// application lays out a different node at n (SameLayout). A run of the
// view equals a run of an image prepared for n nodes, in its Result and in
// everything it emits: boot, node setup and the heap phase reach the node
// count only through the inputs SameLayout compares, so the view rebuilds
// only what is built after them at n, the communicator, the step plan and
// the max-of-K tables of the plan's windows. The view's job carries n,
// so degraded completion runs on n − 1 nodes. The view shares
// everything else with the image and is read-only like it.
func (img *Image) Nodes(n int) (*Image, error) {
	if n == img.j.Nodes {
		return img, nil
	}
	if n < 1 {
		return nil, fmt.Errorf("cluster: bad node count %d", n)
	}
	if !SameLayout(img.j.App, img.j.Nodes, n) {
		return nil, fmt.Errorf("cluster: %s lays out a different node at %d nodes than at %d",
			img.j.App.Name, n, img.j.Nodes)
	}
	comm, err := mpi.New(img.j.Fabric, n, img.j.App.RanksPerNode)
	if err != nil {
		return nil, err
	}
	v := *img
	v.j.Nodes = n
	v.comm = comm
	v.plan = newStepPlan(v.j, v.k, comm)
	v.setPolicy(img.pol, img.prof.CloneTables(0))
	return &v, nil
}

// Steps returns a view of the image that runs the job for n of the
// App.Timesteps steps it was prepared for: the image itself when n is all
// of them, an error when n is below 1 or above them. A run of the view
// equals a run of an image prepared for n steps, in its Result and in
// everything it emits. The heap record of an n-step run is a prefix of
// this one's (heapRecord), and so is its list of dense windows, in the
// order the tables were built (tableWindows); Tabulate builds the tables
// of a prefix exactly as it built them here. The view draws from those
// first tables alone, so that a window a seeded offload stall stretches
// cannot meet a table only a later step's window built. The view shares
// everything else with the image and is read-only like it.
func (img *Image) Steps(n int) (*Image, error) {
	if n == img.j.App.Timesteps {
		return img, nil
	}
	if n < 1 || n > img.j.App.Timesteps {
		return nil, fmt.Errorf("cluster: %d steps of an image prepared for %d", n, img.j.App.Timesteps)
	}
	v := *img
	app := *img.j.App
	app.Timesteps = n
	v.j.App = &app
	return &v, nil
}

// Run executes the seeded part of the job against the image: the
// scheduler state, the fault injector, the noise draws and the step
// composition, with retries and degraded completion as the job's fault
// plan directs. Seed drives every draw; same image and seed, identical
// result. Sink receives the run's counters, events and observations, the
// recorded setup and heap emissions included, and may ask for no more than
// the image records. Run honours ctx between attempts and periodically
// inside the step loop; a cancelled run returns ctx's error and never a
// partial Result, so cancellation cannot leak a timing-dependent output
// into a determinism-checked pipeline.
func (img *Image) Run(ctx context.Context, seed uint64, sink *trace.Sink) (Result, error) {
	if sink.Counting() && !img.counting || sink.Observing() && !img.observing {
		return Result{}, fmt.Errorf("cluster: the run's sink asks for counters or observations the image was prepared without")
	}
	// Every stream the run draws from derives from seed here. The
	// injector and the scheduler state draw from streams of their own —
	// never from the step RNG — so a nil injector (empty plan) or a
	// zero-charge policy leaves the step draws untouched. The step RNG
	// keeps its historical derivation so every output stays byte-identical.
	inj := fault.NewInjector(img.j.Faults, sim.StreamSeed(seed, fault.StreamCluster))
	schedSeed := sim.StreamSeed(seed, sched.StreamState)
	stepSeed := seed ^ 0x6d6b6c697465 // "mklite"
	cur := img
	var recovery sim.Duration
	retries, lost := 0, 0
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("cluster: run cancelled: %w", err)
		}
		res, failNode, failStep, failed, err := cur.attempt(ctx, stepSeed, schedSeed, sink, inj, attempt)
		if err != nil {
			return Result{}, err
		}
		if !failed {
			res.Retries = retries
			res.LostNodes = lost
			res.Degraded = lost > 0
			if recovery > 0 {
				// Recovery time counts against the job's wall clock;
				// the figure of merit degrades accordingly.
				total := res.Elapsed + recovery
				res.FOM *= float64(res.Elapsed) / float64(total)
				res.Elapsed = total
				res.Recovery = recovery
				if sink.Counting() {
					sink.CountKey(trace.KeyFaultRecoveryNs, int64(recovery))
				}
				if sink.Observing() {
					sink.Observe("fault.recovery_ns", int64(recovery))
					sink.Gauge("fault.retries", int64(retries))
				}
			}
			if lost > 0 && sink.Observing() {
				sink.Gauge("fault.degraded_nodes", int64(lost))
			}
			return res, nil
		}

		// The attempt died at failStep: its partial elapsed time is the
		// time-to-failure, lost to the job along with the retry backoff.
		recovery += res.Elapsed
		if sink.Counting() {
			sink.CountKey(trace.KeyFaultNodeFailures, 1)
		}
		if sink.Eventing() {
			sink.Instant(int64(recovery), 0, laneMPI, "node-failure", "fault",
				map[string]int64{"attempt": int64(attempt), "node": int64(failNode),
					"step": int64(failStep)})
		}
		if retries < inj.MaxRetries() {
			// A retry re-executes on the same nodes: same image.
			retries++
			recovery += inj.Backoff(retries - 1)
			if sink.Counting() {
				sink.CountKey(trace.KeyFaultRetries, 1)
			}
			continue
		}
		if inj.AllowDegraded() && cur.j.Nodes > 1 {
			// Out of retries: drop the dead node and finish on the
			// survivors: on the view of this image at one node fewer
			// when the application lays the same node out there,
			// else on an image this run prepares for itself. Further
			// failures are disabled so the shrunken job is guaranteed
			// to terminate.
			j := cur.j
			j.Nodes--
			if SameLayout(j.App, cur.j.Nodes, j.Nodes) {
				cur, err = cur.Nodes(j.Nodes)
			} else {
				cur, err = prepare(ctx, j, img.counting, img.observing, img.store)
			}
			if err != nil {
				return Result{}, err
			}
			lost++
			inj.DisableNodeFailures()
			recovery += inj.Backoff(retries)
			if sink.Counting() {
				sink.CountKey(trace.KeyFaultDegradedNodes, 1)
			}
			continue
		}
		return Result{}, fmt.Errorf("cluster: node %d failed at step %d; retries exhausted after %d attempts",
			failNode, failStep, attempt+1)
	}
}

// attempt plays the node's setup emissions, draws this attempt's
// node-failure fate and executes the steps — all of them, or only up to
// the failure step when the attempt is doomed.
func (img *Image) attempt(ctx context.Context, stepSeed, schedSeed uint64, sink *trace.Sink, inj *fault.Injector, attempt int) (res Result, failNode, failStep int, failed bool, err error) {
	rseed := stepSeed
	if attempt > 0 {
		// Re-executions derive their own stream; attempt 0 keeps the
		// historical derivation so faults-off runs stay byte-identical.
		rseed = sim.StreamSeed(rseed, uint64(attempt))
	}
	rng := sim.NewRNG(rseed)
	// The first split once went to node setup, which draws nothing.
	// Discarding it keeps the step loop on the stream it has always had,
	// so every run's output is unchanged.
	rng.Split()
	img.setupEmits.play(sink)

	failNode, failStep, failed = inj.NodeFailure(attempt, img.j.Nodes, img.j.App.Timesteps)
	stop := -1
	if failed {
		stop = failStep
	}
	res, err = img.runSteps(ctx, schedSeed, sink, rng.Split(), inj, stop)
	if err != nil {
		return Result{}, 0, 0, false, err
	}
	res.App = img.j.App.Name
	res.Kernel = img.k.Type().String()
	res.Nodes = img.j.Nodes
	res.Ranks = img.comm.Ranks()
	res.Unit = img.j.App.Unit
	return res, failNode, failStep, failed, nil
}

// emissions is one recorded stretch of a run's counters and observations:
// what node setup, or one step of the heap phase, emits. Prepare records
// each stretch once, and every run plays it into its own sink. The nil
// *emissions records and plays nothing.
type emissions struct {
	// counters is nil unless the image counts.
	counters  *trace.Counters
	observing bool
	obs       []observation
}

// observation is one recorded trace.Observer call.
type observation struct {
	kind obsKind
	name string
	rank int
	v    int64
}

type obsKind uint8

const (
	obsSample obsKind = iota
	obsRank
	obsPhase
	obsGauge
)

func newEmissions(counting, observing bool) *emissions {
	if !counting && !observing {
		return nil
	}
	e := &emissions{observing: observing}
	if counting {
		e.counters = trace.NewCounters()
	}
	return e
}

// sink returns a sink that records into e.
func (e *emissions) sink() *trace.Sink {
	if e == nil {
		return nil
	}
	var obs trace.Observer
	if e.observing {
		obs = e
	}
	return trace.NewSinkObs(e.counters, nil, obs)
}

func (e *emissions) Observe(name string, v int64) {
	e.obs = append(e.obs, observation{kind: obsSample, name: name, v: v})
}

func (e *emissions) ObserveRank(name string, rank int, v int64) {
	e.obs = append(e.obs, observation{kind: obsRank, name: name, rank: rank, v: v})
}

func (e *emissions) AddPhase(name string, d int64) {
	e.obs = append(e.obs, observation{kind: obsPhase, name: name, v: d})
}

func (e *emissions) SetGauge(name string, v int64) {
	e.obs = append(e.obs, observation{kind: obsGauge, name: name, v: v})
}

// play emits the recording into sink, as far as sink asks for it.
func (e *emissions) play(sink *trace.Sink) {
	e.count(sink, 1)
	e.observe(sink)
}

// count applies n repetitions of the recorded counters to sink's.
func (e *emissions) count(sink *trace.Sink, n int64) {
	if e != nil && e.counters != nil && sink.Counting() {
		sink.Counters().Replay(e.counters, n)
	}
}

// observe emits the recorded observations into sink, in order.
func (e *emissions) observe(sink *trace.Sink) {
	if e == nil || !sink.Observing() {
		return
	}
	for _, o := range e.obs {
		switch o.kind {
		case obsSample:
			sink.Observe(o.name, o.v)
		case obsRank:
			sink.ObserveRank(o.name, o.rank, o.v)
		case obsPhase:
			sink.Phase(o.name, o.v)
		case obsGauge:
			sink.Gauge(o.name, o.v)
		}
	}
}

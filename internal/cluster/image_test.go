package cluster

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/metrics"
	"mklite/internal/par"
	"mklite/internal/sched"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// sinkMode selects what a run's sink records.
type sinkMode int

const (
	sinkOff sinkMode = iota
	sinkCounters
	sinkMetrics
	sinkAll // counters, metrics and events
	numSinkModes
)

func (m sinkMode) String() string {
	return [...]string{"off", "counters", "metrics", "all"}[m]
}

// observed is one run's result or error with everything its sink
// recorded, serialised: counters and metrics as their JSON artifacts,
// events as the trace JSON.
type observed struct {
	res                      Result
	err                      string
	counters, metrics, event []byte
}

// newModeSink builds a fresh sink for mode and a function that serialises
// what it recorded.
func newModeSink(t testing.TB, mode sinkMode) (*trace.Sink, func(Result, error) observed) {
	var ctrs *trace.Counters
	var reg *metrics.Registry
	var evs *trace.Events
	var obs trace.Observer
	if mode == sinkCounters || mode == sinkAll {
		ctrs = trace.NewCounters()
	}
	if mode == sinkMetrics || mode == sinkAll {
		reg = metrics.NewRegistry()
		obs = reg
	}
	if mode == sinkAll {
		evs = trace.NewEvents(1 << 16)
	}
	return trace.NewSinkObs(ctrs, evs, obs), func(res Result, err error) observed {
		o := observed{res: res}
		if err != nil {
			o.err = err.Error()
		}
		var buf bytes.Buffer
		if ctrs != nil {
			if err := ctrs.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			o.counters = bytes.Clone(buf.Bytes())
			buf.Reset()
		}
		if reg != nil {
			if err := reg.Report().WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			o.metrics = bytes.Clone(buf.Bytes())
		}
		if evs != nil {
			o.event = evs.JSON()
		}
		return o
	}
}

// freshRun runs j from scratch through RunContext with a sink for mode.
func freshRun(t testing.TB, j Job, mode sinkMode) observed {
	sink, done := newModeSink(t, mode)
	j.Sink = sink
	return done(RunContext(context.Background(), j))
}

// imageRun is one run of a shared image: its seed, its step count (0 for
// every step the image was prepared for), its scheduling policy (empty for
// the image's own) and its node count (0 for the image's own). The run
// takes the views it needs in the order order spells them, 't' for Steps,
// 's' for Sched and 'n' for Nodes; the empty order is "tsn".
type imageRun struct {
	seed  uint64
	steps int
	sched sched.Kind
	nodes int
	order string
}

// viewOrders are the six orders of the three views.
var viewOrders = []string{"tsn", "tns", "stn", "snt", "nts", "nst"}

// seedRuns returns a run of every step for each seed.
func seedRuns(seeds ...uint64) []imageRun {
	runs := make([]imageRun, len(seeds))
	for i, s := range seeds {
		runs[i] = imageRun{seed: s}
	}
	return runs
}

// view returns the view of img that r runs.
func (r imageRun) view(img *Image) (*Image, error) {
	v := img
	for _, c := range cmp.Or(r.order, "tsn") {
		var err error
		switch {
		case c == 't' && r.steps > 0:
			v, err = v.Steps(r.steps)
		case c == 's' && r.sched != "":
			v, err = v.Sched(r.sched)
		case c == 'n' && r.nodes > 0:
			v, err = v.Nodes(r.nodes)
		}
		if err != nil {
			return nil, err
		}
	}
	return v, nil
}

// job returns j as a fresh run of r: r's seed, with a copy of its
// application that runs r's steps, under r's policy, on r's nodes.
func (r imageRun) job(j Job) Job {
	j.Seed = r.seed
	if r.steps > 0 {
		app := *j.App
		app.Timesteps = r.steps
		j.App = &app
	}
	if r.sched != "" {
		j.Sched = r.sched
	}
	if r.nodes > 0 {
		j.Nodes = r.nodes
	}
	return j
}

// imageRuns prepares j once and makes every run against the one image,
// through the views each run takes, concurrently at par width 4, each run
// with its own sink for mode. When Prepare fails, every run reports its
// error and an empty sink.
func imageRuns(t testing.TB, j Job, mode sinkMode, runs []imageRun) []observed {
	proto, _ := newModeSink(t, mode)
	j.Sink = proto
	img, err := Prepare(context.Background(), j)
	out, _ := par.MapWidthErr(4, len(runs), func(i int) (observed, error) {
		sink, done := newModeSink(t, mode)
		if err != nil {
			return done(Result{}, err), nil
		}
		v, err := runs[i].view(img)
		if err != nil {
			return done(Result{}, err), nil
		}
		return done(v.Run(context.Background(), runs[i].seed, sink)), nil
	})
	return out
}

// checkRuns checks each image run against a fresh run of the same seed,
// step count and policy, and returns the image runs.
func checkRuns(t testing.TB, j Job, mode sinkMode, runs []imageRun) []observed {
	t.Helper()
	got := imageRuns(t, j, mode, runs)
	for i, r := range runs {
		fj := r.job(j)
		label := fmt.Sprintf("seed %d, %d steps, %d nodes", r.seed, fj.App.Timesteps, fj.Nodes)
		if r.sched != "" {
			label += ", sched " + string(r.sched)
		}
		if r.order != "" {
			label += ", views " + r.order
		}
		checkSame(t, label, got[i], freshRun(t, fj, mode))
	}
	return got
}

// checkSame fails unless the image run and the fresh run agree result for
// result (or error for error) and byte for byte in every artifact.
func checkSame(t testing.TB, run string, got, want observed) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: image run error %q, fresh %q", run, got.err, want.err)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%s: image result %+v, fresh %+v", run, got.res, want.res)
	}
	for _, a := range []struct {
		name      string
		got, want []byte
	}{{"counters", got.counters, want.counters}, {"metrics", got.metrics, want.metrics}, {"events", got.event, want.event}} {
		if !bytes.Equal(a.got, a.want) {
			t.Fatalf("%s: %s JSON differs (image %d bytes, fresh %d)", run, a.name, len(a.got), len(a.want))
		}
	}
}

// imagePlans are the fault plans the image tests run: none, a node failure
// that truncates the first two attempts and is retried, and a daemon storm
// whose failures exhaust retries and complete degraded.
var imagePlans = []string{
	"",
	"nodefail:failfirst=2;retry:max=2,base=1ms",
	"storm;nodefail:failfirst=2;retry:max=1;degraded;straggler:node=0,extra=1ms",
}

func mustPlan(t testing.TB, spec string) *fault.Plan {
	if spec == "" {
		return nil
	}
	p, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestImageRunsMatchFresh is the differential and concurrency check of the
// image: one image per job runs seeds 1-8 concurrently at par width 4, and
// every run equals a fresh RunContext run of the same seed — its Result,
// and its counters, metrics and events JSON byte for byte. The grid takes
// every kernel, Lulesh's heap trace and MiniFE's collectives, and every
// plan in imagePlans (retries, truncated attempts, a storm, degraded
// completion); its cells rotate through the sink modes and per-step
// tracing, so each kernel, application and plan meets several of them.
// Two more cells run both applications on Linux under the facility storm,
// whose windows are dense, so their runs draw from the image's
// max-of-K tables. The "steps" cells run Lulesh on every kernel under
// every plan, the two storm cells again and AMG2013 under the storm, whose
// second dense window first appears at step 1, at shorter step counts of
// the one image (stepCounts), each against a fresh run prepared for that
// many steps. The "sched" cells run Lulesh on every kernel under the
// facility storm (dense windows on Linux) and under the degraded-completion
// plan, from an image prepared under the kernel's default policy and one
// prepared under tickless, and take every policy of sched.Kinds as a view
// (Sched): alone, and composed with Steps in both orders, each against a
// fresh run prepared under that policy (checkSchedView also compares what
// the view holds). The "nodes" cells run Lulesh on every kernel under the
// facility storm and the degraded-completion plan on 16, 4 and 2 nodes of
// one 8-node image (Nodes), composed with Steps and Sched in each of
// viewOrders, each against a fresh run prepared on that many nodes
// (checkNodesView compares what the view holds). Under -race it also
// checks that concurrent runs share the image without a data race.
func TestImageRunsMatchFresh(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	allSeeds := func(testing.TB, Job) []imageRun { return seedRuns(seeds...) }
	shortRuns := func(t testing.TB, j Job) (runs []imageRun) {
		for _, n := range stepCounts(t, j) {
			for _, seed := range seeds[:2] {
				runs = append(runs, imageRun{seed: seed, steps: n})
			}
		}
		return runs
	}
	cell := 0
	run := func(name string, j Job, runsOf func(testing.TB, Job) []imageRun) {
		mode, tracing := sinkMode(cell)%numSinkModes, cell/int(numSinkModes)%2 == 1
		cell++
		j.Trace = tracing
		t.Run(fmt.Sprintf("%s/%v/trace=%v", name, mode, tracing), func(t *testing.T) {
			runs := runsOf(t, j)
			for i, o := range checkRuns(t, j, mode, runs) {
				if o.err != "" {
					t.Fatalf("seed %d: %s", runs[i].seed, o.err)
				}
			}
		})
	}
	imageApps := []*apps.Spec{apps.Lulesh(), apps.MiniFE()}
	for _, app := range imageApps {
		for _, bk := range benchKernels {
			for pi, spec := range imagePlans {
				run(fmt.Sprintf("%s/%s/plan%d", app.Name, bk.name, pi),
					Job{App: app, Kernel: bk.kt, Nodes: 8, Faults: mustPlan(t, spec)}, allSeeds)
			}
		}
	}
	storm := func(app *apps.Spec) Job {
		return Job{App: app, Kernel: kernel.TypeLinux, Nodes: 8, Faults: mustPlan(t, facilityStormPlan)}
	}
	for _, app := range imageApps {
		run(app.Name+"/linux/dense-storm", storm(app), allSeeds)
	}
	for _, bk := range benchKernels {
		for pi, spec := range imagePlans {
			run(fmt.Sprintf("%s/%s/plan%d/steps", apps.Lulesh().Name, bk.name, pi),
				Job{App: apps.Lulesh(), Kernel: bk.kt, Nodes: 8, Faults: mustPlan(t, spec)}, shortRuns)
		}
	}
	for _, app := range append(imageApps, apps.AMG2013()) {
		run(app.Name+"/linux/dense-storm/steps", storm(app), shortRuns)
	}
	for _, bk := range benchKernels {
		for _, base := range []sched.Kind{"", sched.Tickless} {
			for _, plan := range []struct{ name, spec string }{{"dense-storm", facilityStormPlan}, {"degraded", imagePlans[2]}} {
				// Policies vary fastest, so each image meets every sink
				// mode.
				for _, kind := range sched.Kinds() {
					j := Job{App: apps.Lulesh(), Kernel: bk.kt, Nodes: 8, Sched: base, Faults: mustPlan(t, plan.spec)}
					run(fmt.Sprintf("%s/%s/%s/from=%s/sched=%s", apps.Lulesh().Name, bk.name, plan.name,
						cmp.Or(base, "default"), kind), j, func(t testing.TB, j Job) []imageRun {
						checkSchedView(t, j, kind)
						n := stepCounts(t, j)[1]
						return []imageRun{{seed: 1, sched: kind}, {seed: 2, steps: n, sched: kind},
							{seed: 3, steps: n, sched: kind, order: "stn"}}
					})
				}
			}
		}
	}
	for _, bk := range benchKernels {
		for _, plan := range []struct{ name, spec string }{{"dense-storm", facilityStormPlan}, {"degraded", imagePlans[2]}} {
			// Orders vary fastest, so each kernel and plan meets every
			// sink mode; each order takes its own policy.
			for oi, order := range viewOrders {
				kind := sched.Kinds()[oi%len(sched.Kinds())]
				j := Job{App: apps.Lulesh(), Kernel: bk.kt, Nodes: 8, Faults: mustPlan(t, plan.spec)}
				run(fmt.Sprintf("%s/%s/%s/nodes/views=%s/sched=%s", apps.Lulesh().Name, bk.name, plan.name,
					order, kind), j, func(t testing.TB, j Job) []imageRun {
					checkNodesView(t, j, 16)
					n := stepCounts(t, j)[1]
					return []imageRun{{seed: 1, nodes: 16}, {seed: 2, nodes: 4},
						{seed: 3, steps: n, sched: kind, nodes: 16, order: order},
						{seed: 4, steps: n, sched: kind, nodes: 2, order: order}}
				})
			}
		}
	}
}

// checkNodesView checks that the view on n nodes of j's image holds what an
// image prepared on n nodes holds wherever the node count reaches past the
// layout: the communicator's rank count, the step plan and the dense
// windows its tables were built at.
func checkNodesView(t testing.TB, j Job, n int) {
	t.Helper()
	img, err := Prepare(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	v, err := img.Nodes(n)
	if err != nil {
		t.Fatal(err)
	}
	j.Nodes = n
	want, err := Prepare(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	vw, _ := v.tableWindows()
	ww, _ := want.tableWindows()
	switch {
	case v.comm.Ranks() != want.comm.Ranks() || v.j.Nodes != n:
		t.Fatalf("view on %d nodes has %d ranks, prepared %d", v.j.Nodes, v.comm.Ranks(), want.comm.Ranks())
	case !reflect.DeepEqual(v.plan, want.plan):
		t.Fatalf("view step plan %+v, prepared %+v", v.plan, want.plan)
	case !slices.Equal(vw, ww) || !slices.Equal(v.tableFirst, want.tableFirst):
		t.Fatalf("view dense windows %v from steps %v, prepared %v from %v", vw, v.tableFirst, ww, want.tableFirst)
	}
}

// TestNodeViewsMatchFresh sweeps every application, kernel and node count
// the paper evaluates: the first node count of each layout (SameLayout)
// prepares an image, and every node count runs its view of its layout's
// image (Nodes) at seed 1 against a fresh run on that many nodes, counters
// included. A node-dependent input that SameLayout does not compare shows
// here as a difference. Every other layout's image refuses the node count;
// the weak-scaled applications keep one layout, and MiniFE, strong-scaled,
// has one per node count.
func TestNodeViewsMatchFresh(t *testing.T) {
	for _, app := range apps.All() {
		for _, bk := range benchKernels {
			t.Run(app.Name+"/"+bk.name, func(t *testing.T) {
				var images []*Image
				for _, n := range app.NodeCounts {
					j := Job{App: app, Kernel: bk.kt, Nodes: n, Seed: 1}
					var v *Image
					for _, img := range images {
						w, err := img.Nodes(n)
						if same := SameLayout(app, img.j.Nodes, n); same != (err == nil) {
							t.Fatalf("image on %d nodes: view on %d: %v (same layout %v)", img.j.Nodes, n, err, same)
						}
						if err == nil && v == nil {
							v = w
						}
					}
					if v == nil {
						proto, _ := newModeSink(t, sinkCounters)
						j.Sink = proto
						img, err := Prepare(context.Background(), j)
						if err != nil {
							t.Fatal(err)
						}
						images, v = append(images, img), img
					}
					sink, done := newModeSink(t, sinkCounters)
					checkSame(t, fmt.Sprintf("%d nodes", n), done(v.Run(context.Background(), 1, sink)),
						freshRun(t, j, sinkCounters))
				}
				want := 1
				if app.Name == apps.MiniFE().Name {
					want = len(app.NodeCounts)
				}
				if len(images) != want {
					t.Errorf("%d node counts in %d layouts, want %d", len(app.NodeCounts), len(images), want)
				}
			})
		}
	}
}

// TestNodesViewErrors: a view on no nodes, or on a node count whose layout
// differs, is an error; a view on the image's own node count is the image.
func TestNodesViewErrors(t *testing.T) {
	img, err := Prepare(context.Background(), Job{App: apps.MiniFE(), Kernel: kernel.TypeMOS, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1, 8} {
		if _, err := img.Nodes(n); err == nil {
			t.Errorf("MiniFE's image on 4 nodes gives a view on %d", n)
		}
	}
	if v, err := img.Nodes(4); err != nil || v != img {
		t.Errorf("view on the image's own node count: %p, %v; want the image", v, err)
	}
}

// TestSameLayoutByValue: SameLayout compares the per-rank inputs, not the
// application's scaling flag.
func TestSameLayoutByValue(t *testing.T) {
	weak := *apps.Lulesh()
	weak.WorkingSetPerRank = func(n int) int64 { return int64(n) << 30 }
	strong := *apps.MiniFE()
	strong.WorkingSetPerRank = func(int) int64 { return 1 << 30 }
	strong.MemTrafficPerStep = func(int) int64 { return 1 << 28 }
	heap := *apps.Lulesh()
	heap.HeapOpsPerStep = func(n int) []int64 { return make([]int64, n) }
	for _, c := range []struct {
		app  *apps.Spec
		want bool
	}{{&weak, false}, {&strong, true}, {&heap, false}, {apps.Lulesh(), true}, {apps.MiniFE(), false}} {
		if got := SameLayout(c.app, 2, 4); got != c.want {
			t.Errorf("%s (weak %v): SameLayout(2, 4) = %v, want %v", c.app.Name, c.app.Weak, got, c.want)
		}
	}
}

// checkSchedView checks that the view under kind of j's image holds what an
// image prepared under kind holds wherever a policy reaches: the policy,
// gang alignment, the noise profile's sources in order (a Linux view drops
// the tick sources or puts them back, before any storm) and the dense
// windows its tables were built at.
func checkSchedView(t testing.TB, j Job, kind sched.Kind) {
	t.Helper()
	img, err := Prepare(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	v, err := img.Sched(kind)
	if err != nil {
		t.Fatal(err)
	}
	j.Sched = kind
	want, err := Prepare(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	sources := func(img *Image) (names []string) {
		for _, s := range img.prof.Sources {
			names = append(names, s.Name)
		}
		return names
	}
	windows := func(img *Image) []sim.Duration {
		ws, _ := img.tableWindows()
		return ws
	}
	switch {
	case v.pol.Kind() != want.pol.Kind() || v.plan.gangAligned != want.plan.gangAligned:
		t.Fatalf("view policy %s (gang aligned %v), prepared %s (%v)",
			v.pol.Kind(), v.plan.gangAligned, want.pol.Kind(), want.plan.gangAligned)
	case !slices.Equal(sources(v), sources(want)):
		t.Fatalf("view noise sources %q, prepared %q", sources(v), sources(want))
	case !slices.Equal(windows(v), windows(want)) || !slices.Equal(v.tableFirst, want.tableFirst):
		t.Fatalf("view dense windows %v from steps %v, prepared %v from %v",
			windows(v), v.tableFirst, windows(want), want.tableFirst)
	}
}

// stepCounts returns the step counts at which the steps cells run one
// image of j: 1, the heap phase's fixed point F (the steps replayed
// without a sink) with F − 1 and F + 1, and all of them; then the first
// step of the last dense window and the one after, so that a shorter run
// leaves a table out. Counts outside 1 to all of them are dropped.
func stepCounts(t testing.TB, j Job) []int {
	j.Sink = nil
	img, err := Prepare(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	all, fp := j.App.Timesteps, len(img.heap.steps)
	counts := []int{1, fp - 1, fp, fp + 1, all}
	if n := len(img.tableFirst); n > 0 {
		counts = append(counts, img.tableFirst[n-1], img.tableFirst[n-1]+1)
	}
	counts = slices.DeleteFunc(counts, func(n int) bool { return n < 1 || n > all })
	slices.Sort(counts)
	return slices.Compact(counts)
}

// TestImageDegradedAndRetried pins that imagePlans reach what
// TestImageRunsMatchFresh claims to cover: retries after truncated
// attempts, and degraded completion both ways it finishes: on the image's
// view at one node fewer (Lulesh, one layout at 8 and 7 nodes) and on a
// freshly prepared image (MiniFE, whose layout changes with the node
// count).
func TestImageDegradedAndRetried(t *testing.T) {
	if !SameLayout(apps.Lulesh(), 8, 7) || SameLayout(apps.MiniFE(), 8, 7) {
		t.Fatal("Lulesh must keep its layout from 8 to 7 nodes and MiniFE change it")
	}
	j := Job{App: apps.Lulesh(), Kernel: kernel.TypeMcKernel, Nodes: 8, Seed: 1}
	j.Faults = mustPlan(t, imagePlans[1])
	if r := freshRun(t, j, sinkOff).res; r.Retries != 2 || r.Degraded {
		t.Errorf("plan 1: %d retries, degraded %v; want 2 retries on all nodes", r.Retries, r.Degraded)
	}
	j.Faults = mustPlan(t, imagePlans[2])
	if r := freshRun(t, j, sinkOff).res; !r.Degraded || r.Nodes != 7 || r.LostNodes != 1 {
		t.Errorf("plan 2: degraded %v on %d nodes (%d lost); want degraded on 7", r.Degraded, r.Nodes, r.LostNodes)
	}
}

// TestImagePlansReachTables pins that TestImageRunsMatchFresh's
// dense-storm cells build max-of-K tables, and that a one-step run of
// AMG2013's image leaves one of them out.
func TestImagePlansReachTables(t *testing.T) {
	for _, app := range []*apps.Spec{apps.Lulesh(), apps.MiniFE(), apps.AMG2013()} {
		img, err := Prepare(context.Background(), Job{App: app, Kernel: kernel.TypeLinux, Nodes: 8,
			Faults: mustPlan(t, facilityStormPlan)})
		if err != nil {
			t.Fatal(err)
		}
		if ws, _ := img.tableWindows(); len(ws) == 0 {
			t.Errorf("%s: the facility storm plan builds no tables", app.Name)
		}
		if app.Name == apps.AMG2013().Name && img.tables(1) == len(img.tableFirst) {
			t.Errorf("%s: a one-step run draws from all %d tables", app.Name, len(img.tableFirst))
		}
	}
}

// TestImageRunRejectsRicherSink: a run may not ask its sink for emissions
// the image was prepared without recording.
func TestImageRunRejectsRicherSink(t *testing.T) {
	img, err := Prepare(context.Background(), Job{App: apps.Lulesh(), Kernel: kernel.TypeLinux, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []sinkMode{sinkCounters, sinkMetrics} {
		sink, _ := newModeSink(t, mode)
		if _, err := img.Run(context.Background(), 1, sink); err == nil {
			t.Errorf("%v sink accepted by an image prepared without a sink", mode)
		}
	}
	sink, _ := newModeSink(t, sinkOff)
	if _, err := img.Run(context.Background(), 1, sink); err != nil {
		t.Errorf("run without a sink: %v", err)
	}
}

// FuzzImageMatchesFresh draws (kernel, application, node count, seed, fault
// plan, sink mode, tracing, a step count, a scheduling policy and a second
// node count) and checks two runs of one image, seeds seed+1 then seed,
// against fresh runs of the same seeds, as TestImageRunsMatchFresh does.
// Both runs take the view of the image under the policy
// sched.Kinds()[sched mod 6] (Sched), and the fresh runs are prepared under
// it. The second run also takes 1 + steps mod the application's timesteps
// of them through Steps and runs on 1 + nodes mod 16 nodes through Nodes,
// taking the three views in the order viewOrders[nodes/16 mod 6], and its
// fresh run is prepared for as many steps on as many nodes. Where the
// application lays out a different node there (SameLayout), Nodes must
// refuse it and the second run stays on the image's node count. The plans
// are imagePlans and the facility storm, whose Linux runs draw from
// max-of-K tables. A run that fails (a single node cannot complete
// degraded) must fail with the same error both ways.
func FuzzImageMatchesFresh(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(7), uint64(1), uint8(0), uint8(0), uint8(0), uint8(0x13))
	f.Add(uint8(1), uint8(3), uint8(15), uint64(9), uint8(7), uint8(3), uint8(3), uint8(0x5f))
	f.Add(uint8(2), uint8(1), uint8(3), uint64(4), uint8(14), uint8(11), uint8(4), uint8(0x21))
	all := apps.All()
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	plans := append(slices.Clone(imagePlans), facilityStormPlan)
	kinds := sched.Kinds()
	f.Fuzz(func(t *testing.T, kind, app, size uint8, seed uint64, plan, steps, sched, nodes uint8) {
		mode := sinkMode(plan/uint8(len(plans))) % numSinkModes
		j := Job{App: all[int(app)%len(all)], Kernel: kts[int(kind)%len(kts)], Nodes: 1 + int(size)%16,
			Faults: mustPlan(t, plans[int(plan)%len(plans)]), Trace: plan&0x80 != 0}
		k := kinds[int(sched)%len(kinds)]
		n := 1 + int(nodes)%16
		if !SameLayout(j.App, j.Nodes, n) {
			img, err := Prepare(context.Background(), j)
			if err == nil {
				if _, err := img.Nodes(n); err == nil {
					t.Fatalf("%s on %d nodes: a view on %d nodes of another layout", j.App.Name, j.Nodes, n)
				}
			}
			n = 0
		}
		checkRuns(t, j, mode, []imageRun{{seed: seed + 1, sched: k},
			{seed: seed, steps: 1 + int(steps)%j.App.Timesteps, sched: k, nodes: n,
				order: viewOrders[int(nodes)/16%len(viewOrders)]}})
	})
}

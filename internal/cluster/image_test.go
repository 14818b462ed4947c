package cluster

import (
	"bytes"
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

// imageRun is one run of a shared image: its seed and its step count, 0
// for every step the image was prepared for.
type imageRun struct {
	seed  uint64
	steps int
}

// seedRuns returns a run of every step for each seed.
func seedRuns(seeds ...uint64) []imageRun {
	runs := make([]imageRun, len(seeds))
	for i, s := range seeds {
		runs[i] = imageRun{seed: s}
	}
	return runs
}

// withSteps returns j with a copy of its application that runs steps
// timesteps (all of them for 0).
func withSteps(j Job, steps int) Job {
	if steps > 0 {
		app := *j.App
		app.Timesteps = steps
		j.App = &app
	}
	return j
}

// imageRuns prepares j once and makes every run against the one image,
// a shorter one through the view Steps returns, concurrently at par width
// 4, each run with its own sink for mode. When Prepare fails, every run
// reports its error and an empty sink.
func imageRuns(t testing.TB, j Job, mode sinkMode, runs []imageRun) []observed {
	proto, _ := newModeSink(t, mode)
	j.Sink = proto
	img, err := Prepare(context.Background(), j)
	return par.MapWidth(4, len(runs), func(i int) observed {
		sink, done := newModeSink(t, mode)
		if err != nil {
			return done(Result{}, err)
		}
		v := img
		if n := runs[i].steps; n > 0 {
			var err error
			if v, err = img.Steps(n); err != nil {
				return done(Result{}, err)
			}
		}
		return done(v.Run(context.Background(), runs[i].seed, sink))
	})
}

// checkRuns checks each image run against a fresh run of the same seed
// and step count, and returns the image runs.
func checkRuns(t testing.TB, j Job, mode sinkMode, runs []imageRun) []observed {
	t.Helper()
	got := imageRuns(t, j, mode, runs)
	for i, r := range runs {
		fj := withSteps(j, r.steps)
		fj.Seed = r.seed
		checkSame(t, fmt.Sprintf("seed %d, %d steps", r.seed, fj.App.Timesteps), got[i], freshRun(t, fj, mode))
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
// dense-window tables. The "steps" cells run Lulesh on every kernel under
// every plan, the two storm cells again and AMG2013 under the storm, whose
// second dense window first appears at step 1, at shorter step counts of
// the one image (stepCounts), each against a fresh run prepared for that
// many steps. Under -race it also checks that concurrent runs share the
// image without a data race.
func TestImageRunsMatchFresh(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	cell := 0
	run := func(name string, j Job, short bool) {
		mode, tracing := sinkMode(cell)%numSinkModes, cell/int(numSinkModes)%2 == 1
		cell++
		j.Trace = tracing
		t.Run(fmt.Sprintf("%s/%v/trace=%v", name, mode, tracing), func(t *testing.T) {
			runs := seedRuns(seeds...)
			if short {
				runs = nil
				for _, n := range stepCounts(t, j) {
					for _, seed := range seeds[:2] {
						runs = append(runs, imageRun{seed: seed, steps: n})
					}
				}
			}
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
					Job{App: app, Kernel: bk.kt, Nodes: 8, Faults: mustPlan(t, spec)}, false)
			}
		}
	}
	storm := func(app *apps.Spec) Job {
		return Job{App: app, Kernel: kernel.TypeLinux, Nodes: 8, Faults: mustPlan(t, facilityStormPlan)}
	}
	for _, app := range imageApps {
		run(app.Name+"/linux/dense-storm", storm(app), false)
	}
	for _, bk := range benchKernels {
		for pi, spec := range imagePlans {
			run(fmt.Sprintf("%s/%s/plan%d/steps", apps.Lulesh().Name, bk.name, pi),
				Job{App: apps.Lulesh(), Kernel: bk.kt, Nodes: 8, Faults: mustPlan(t, spec)}, true)
		}
	}
	for _, app := range append(imageApps, apps.AMG2013()) {
		run(app.Name+"/linux/dense-storm/steps", storm(app), true)
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
	if n := len(img.denseFirst); n > 0 {
		counts = append(counts, img.denseFirst[n-1], img.denseFirst[n-1]+1)
	}
	counts = slices.DeleteFunc(counts, func(n int) bool { return n < 1 || n > all })
	slices.Sort(counts)
	return slices.Compact(counts)
}

// TestImageDegradedAndRetried pins that imagePlans reach what
// TestImageRunsMatchFresh claims to cover: retries after truncated
// attempts, and degraded completion on a re-prepared image.
func TestImageDegradedAndRetried(t *testing.T) {
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
// dense-storm cells build dense-window tables, and that a one-step run of
// AMG2013's image leaves one of them out.
func TestImagePlansReachTables(t *testing.T) {
	for _, app := range []*apps.Spec{apps.Lulesh(), apps.MiniFE(), apps.AMG2013()} {
		img, err := Prepare(context.Background(), Job{App: app, Kernel: kernel.TypeLinux, Nodes: 8,
			Faults: mustPlan(t, facilityStormPlan)})
		if err != nil {
			t.Fatal(err)
		}
		if ws, _ := img.denseWindows(); len(ws) == 0 {
			t.Errorf("%s: the facility storm plan builds no tables", app.Name)
		}
		if app.Name == apps.AMG2013().Name && img.tables(1) == len(img.denseFirst) {
			t.Errorf("%s: a one-step run draws from all %d tables", app.Name, len(img.denseFirst))
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
// plan, sink mode, tracing and a step count) and checks two runs of one
// image, seeds seed+1 then seed, against fresh runs of the same seeds, as
// TestImageRunsMatchFresh does. The second run takes 1 + steps mod the
// application's timesteps of them through Steps, and its fresh run is
// prepared for as many. The plans are imagePlans and the facility storm,
// whose Linux runs draw from dense-window tables. A run that fails (a
// single node cannot complete degraded) must fail with the same error
// both ways.
func FuzzImageMatchesFresh(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(7), uint64(1), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(3), uint8(15), uint64(9), uint8(7), uint8(3))
	f.Add(uint8(2), uint8(1), uint8(3), uint64(4), uint8(14), uint8(11))
	all := apps.All()
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	plans := append(slices.Clone(imagePlans), facilityStormPlan)
	f.Fuzz(func(t *testing.T, kind, app, nodes uint8, seed uint64, plan, steps uint8) {
		mode := sinkMode(plan/uint8(len(plans))) % numSinkModes
		j := Job{App: all[int(app)%len(all)], Kernel: kts[int(kind)%len(kts)], Nodes: 1 + int(nodes)%16,
			Faults: mustPlan(t, plans[int(plan)%len(plans)]), Trace: plan&0x80 != 0}
		checkRuns(t, j, mode, []imageRun{{seed: seed + 1}, {seed: seed, steps: 1 + int(steps)%j.App.Timesteps}})
	})
}

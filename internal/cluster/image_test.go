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

// imageRuns prepares j once and runs every seed against the one image,
// concurrently at par width 4, each run with its own sink for mode. When
// Prepare fails, every run reports its error and an empty sink.
func imageRuns(t testing.TB, j Job, mode sinkMode, seeds []uint64) []observed {
	proto, _ := newModeSink(t, mode)
	j.Sink = proto
	img, err := Prepare(context.Background(), j)
	return par.MapWidth(4, len(seeds), func(i int) observed {
		sink, done := newModeSink(t, mode)
		if err != nil {
			return done(Result{}, err)
		}
		return done(img.Run(context.Background(), seeds[i], sink))
	})
}

// checkSame fails unless the image run and the fresh run agree result for
// result (or error for error) and byte for byte in every artifact.
func checkSame(t testing.TB, seed uint64, got, want observed) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("seed %d: image run error %q, fresh %q", seed, got.err, want.err)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("seed %d: image result %+v, fresh %+v", seed, got.res, want.res)
	}
	for _, a := range []struct {
		name      string
		got, want []byte
	}{{"counters", got.counters, want.counters}, {"metrics", got.metrics, want.metrics}, {"events", got.event, want.event}} {
		if !bytes.Equal(a.got, a.want) {
			t.Fatalf("seed %d: %s JSON differs (image %d bytes, fresh %d)", seed, a.name, len(a.got), len(a.want))
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
// dense-window tables. Under -race it also checks that concurrent runs
// share the image without a data race.
func TestImageRunsMatchFresh(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	cell := 0
	run := func(name string, j Job) {
		mode, tracing := sinkMode(cell)%numSinkModes, cell/int(numSinkModes)%2 == 1
		cell++
		j.Trace = tracing
		t.Run(fmt.Sprintf("%s/%v/trace=%v", name, mode, tracing), func(t *testing.T) {
			got := imageRuns(t, j, mode, seeds)
			for i, seed := range seeds {
				j.Seed = seed
				if got[i].err != "" {
					t.Fatalf("seed %d: %s", seed, got[i].err)
				}
				checkSame(t, seed, got[i], freshRun(t, j, mode))
			}
		})
	}
	imageApps := []*apps.Spec{apps.Lulesh(), apps.MiniFE()}
	for _, app := range imageApps {
		for _, bk := range benchKernels {
			for pi, spec := range imagePlans {
				run(fmt.Sprintf("%s/%s/plan%d", app.Name, bk.name, pi),
					Job{App: app, Kernel: bk.kt, Nodes: 8, Faults: mustPlan(t, spec)})
			}
		}
	}
	for _, app := range imageApps {
		run(app.Name+"/linux/dense-storm",
			Job{App: app, Kernel: kernel.TypeLinux, Nodes: 8, Faults: mustPlan(t, facilityStormPlan)})
	}
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
// dense-storm cells build dense-window tables.
func TestImagePlansReachTables(t *testing.T) {
	for _, app := range []*apps.Spec{apps.Lulesh(), apps.MiniFE()} {
		img, err := Prepare(context.Background(), Job{App: app, Kernel: kernel.TypeLinux, Nodes: 8,
			Faults: mustPlan(t, facilityStormPlan)})
		if err != nil {
			t.Fatal(err)
		}
		if len(img.denseWindows()) == 0 {
			t.Errorf("%s: the facility storm plan builds no tables", app.Name)
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
// plan, sink mode and tracing) and checks two runs of one image, seeds
// seed+1 then seed, against fresh runs of the same seeds, as
// TestImageRunsMatchFresh does. The plans are imagePlans and the facility
// storm, whose Linux runs draw from dense-window tables. A run that fails
// (a single node cannot complete degraded) must fail with the same error
// both ways.
func FuzzImageMatchesFresh(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(7), uint64(1), uint8(0))
	f.Add(uint8(1), uint8(3), uint8(15), uint64(9), uint8(7))
	f.Add(uint8(2), uint8(1), uint8(3), uint64(4), uint8(14))
	all := apps.All()
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	plans := append(slices.Clone(imagePlans), facilityStormPlan)
	f.Fuzz(func(t *testing.T, kind, app, nodes uint8, seed uint64, plan uint8) {
		mode := sinkMode(plan/uint8(len(plans))) % numSinkModes
		j := Job{App: all[int(app)%len(all)], Kernel: kts[int(kind)%len(kts)], Nodes: 1 + int(nodes)%16,
			Faults: mustPlan(t, plans[int(plan)%len(plans)]), Trace: plan&0x80 != 0}
		seeds := []uint64{seed + 1, seed}
		got := imageRuns(t, j, mode, seeds)
		for i, s := range seeds {
			j.Seed = s
			checkSame(t, s, got[i], freshRun(t, j, mode))
		}
	})
}

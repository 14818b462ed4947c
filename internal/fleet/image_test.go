package fleet

import (
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/obs"
	"mklite/internal/sched"
	"mklite/internal/trace"
)

// imagePolicies are the legs TestFacilityMatchesFreshRuns runs: every
// kernel policy, and heuristic:gang.
var imagePolicies = []string{"fixed-linux", "fixed-mckernel", "fixed-mos", "heuristic", "specialize", "heuristic:gang"}

// TestFacilityMatchesFreshRuns is the differential check of the shared
// node images. Under each kernel policy, and heuristic:gang, a quick
// facility with per-job outcomes, merged and per-job counters and per-job
// event tracks runs its jobs on the images of its cluster.Images store,
// and every job's outcome equals a fresh cluster.Run of its launch spec —
// the policy's choice, its co-tenancy plan (interferenceFor), its own
// application, timestep budget and seed. Elapsed time, FOM, the job's
// counters and its event track must match exactly. The leg's store
// prepares one image per layout of its keys (split by
// cluster.SameLayout), fewer than it has keys, and holds one image per
// key, fewer than the leg has jobs; specialize's calibration cells are
// keys of the leg's store too.
//
// The "comparison" cell runs all six legs on one store, in order, so each
// leg after the first runs on images the earlier legs and the calibration
// prepared. Every job again equals a fresh run, every calibration cell's
// FOM equals a fresh cluster.Run of its calibration job, the store
// prepares exactly one image per distinct layout of the legs' and the
// calibration's keys, and each leg's Result JSON is byte-identical to the
// same leg run on a store of its own.
func TestFacilityMatchesFreshRuns(t *testing.T) {
	for _, name := range imagePolicies {
		t.Run(name, func(t *testing.T) {
			l := runLeg(t, name, nil)
			keys := l.keys(t)
			nLayouts := countLayouts(keys)
			prepared, nKeys := l.s.images.Sizes()
			if prepared != nLayouts || nLayouts >= len(keys) {
				t.Fatalf("%d images prepared for %d layouts of %d keys", prepared, nLayouts, len(keys))
			}
			if nKeys != len(keys) || len(keys) >= len(l.res.PerJob) {
				t.Fatalf("the store holds %d keys, the leg has %d keys and %d jobs", nKeys, len(keys), len(l.res.PerJob))
			}
			t.Logf("%d jobs, %d keys, %d layouts", len(l.res.PerJob), len(keys), nLayouts)
			l.matchFresh(t)
		})
	}

	t.Run("comparison", func(t *testing.T) {
		shared := cluster.NewImages()
		all := map[jobKey]*apps.Spec{}
		alone := 0
		var cal leg
		for _, name := range imagePolicies {
			l := runLeg(t, name, shared)
			l.matchFresh(t)
			maps.Copy(all, l.keys(t))
			own := runLeg(t, name, nil)
			if a, b := resultBytes(t, l.res), resultBytes(t, own.res); string(a) != string(b) {
				t.Fatalf("%s: result on the shared store differs from the leg run alone:\nshared: %.300s\nalone:  %.300s", name, a, b)
			}
			n, _ := own.s.images.Sizes()
			alone += n
			if name == "specialize" {
				cal = l
			}
		}
		nLayouts := countLayouts(all)
		prepared, nKeys := shared.Sizes()
		if prepared != nLayouts || nKeys != len(all) || nLayouts >= alone {
			t.Fatalf("shared store: %d images prepared for %d layouts, %d keys for %d; the legs alone prepared %d",
				prepared, nLayouts, nKeys, len(all), alone)
		}
		t.Logf("%d keys, %d layouts on the shared store; %d images prepared by the legs alone", len(all), nLayouts, alone)

		sp := cal.pol.(*specializePolicy)
		foms, err := calibrationFOMs(shared, sp.cells, 2, cal.s.counting, cal.s.budget)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := shared.Sizes(); n != nLayouts {
			t.Fatalf("calibrating again on the warmed store prepared %d more images", n-nLayouts)
		}
		for i, c := range sp.cells {
			fresh, err := cluster.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if foms[i] != fresh.FOM {
				t.Fatalf("calibration cell %d (%s on %v): FOM %v, fresh %v", i, c.App.Name, c.Kernel, foms[i], fresh.FOM)
			}
		}
	})
}

// leg is one finished quick facility run of TestFacilityMatchesFreshRuns.
type leg struct {
	cfg    Config
	pol    KernelPolicy
	s      *Scheduler
	stream []*Job
	res    *Result
}

// runLeg runs the quick facility under policy name on imgs (nil = a store
// of its own) with per-job outcomes, counters and event tracks.
func runLeg(t *testing.T, name string, imgs *cluster.Images) leg {
	t.Helper()
	cfg := quickCfg()
	cfg.Workers = 2
	cfg.Images = imgs
	pol, err := ParsePolicy(name, cfg.Seed, cfg.Workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = pol
	cfg.Observe = &obs.Options{
		Timeline:    obs.NewTimeline(cfg.Nodes, cfg.Share, 1<<20),
		JobCounters: true,
		JobEvents:   true,
		JobEventCap: 256,
	}
	cfg = cfg.normalize()
	stream, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newScheduler(cfg)
	res, err := s.run(stream)
	if err != nil {
		t.Fatal(err)
	}
	return leg{cfg: cfg, pol: pol, s: s, stream: stream, res: res}
}

// jobKey is what the store keys a job's image by (cluster.Images), less
// what every job of the legs shares (whether they count, the budget): the
// application, kernel, scheduler, node count and the fault plan, by value
// as its JSON.
type jobKey struct {
	app    string
	kernel kernel.Type
	sched  sched.Kind
	nodes  int
	plan   string
}

// keys returns the key of every job of the leg and, when its policy
// calibrates, of every calibration cell, each with its application.
func (l leg) keys(t *testing.T) map[jobKey]*apps.Spec {
	keys := map[jobKey]*apps.Spec{}
	add := func(app *apps.Spec, kt kernel.Type, kind sched.Kind, nodes int, plan *fault.Plan) {
		b, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		keys[jobKey{app: app.Name, kernel: kt, sched: kind, nodes: nodes, plan: string(b)}] = app
	}
	for _, out := range l.res.PerJob {
		j := l.stream[out.ID]
		ch := l.pol.Select(j)
		add(j.App, ch.Kernel, ch.Sched, out.Nodes, interferenceFor(l.cfg.Interference, out.Cotenancy))
	}
	if sp, ok := l.pol.(*specializePolicy); ok {
		for _, c := range sp.cells {
			add(c.App, c.Kernel, c.Sched, c.Nodes, c.Faults)
		}
	}
	return keys
}

// matchFresh re-runs every job of the leg through a fresh cluster.Run of
// its launch spec and compares elapsed time, FOM, counters and events.
func (l leg) matchFresh(t *testing.T) {
	t.Helper()
	o := l.cfg.Observe
	tracks, starts := jobTracks(o.Timeline)
	for _, out := range l.res.PerJob {
		j := l.stream[out.ID]
		ch := l.pol.Select(j)
		c, ev := trace.NewCounters(), trace.NewEvents(o.JobEventRingCap())
		fresh, err := cluster.Run(cluster.Job{App: j.App, Kernel: ch.Kernel, Sched: ch.Sched,
			Nodes: j.Nodes, Seed: j.Seed, Sink: trace.NewSink(c, ev),
			Faults: interferenceFor(l.cfg.Interference, out.Cotenancy)})
		if err != nil {
			t.Fatal(err)
		}
		if e := (fresh.Setup + fresh.Elapsed).Seconds(); out.ElapsedSec != e || out.FOM != fresh.FOM {
			t.Fatalf("job %d: elapsed %v s, FOM %v; fresh %v s, %v", out.ID, out.ElapsedSec, out.FOM, e, fresh.FOM)
		}
		want := c.Map()
		got := map[string]int64{}
		prefix := "job/" + strconv.Itoa(out.ID) + "/"
		for name, v := range l.res.JobCounters {
			if rest, ok := strings.CutPrefix(name, prefix); ok {
				got[rest] = v
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d: counters %v, fresh %v", out.ID, got, want)
		}
		wantEv := trace.Rescoped(ev.Snapshot(), o.Timeline.JobPid(out.ID), starts[out.ID])
		if len(wantEv) == 0 || !reflect.DeepEqual(tracks[out.ID], wantEv) {
			t.Fatalf("job %d: %d events on its track, fresh run %d", out.ID, len(tracks[out.ID]), len(wantEv))
		}
	}
}

// countLayouts returns how many images the keys need: one per node layout
// (cluster.SameLayout) of each key family, the keys with their node count
// left out.
func countLayouts(keys map[jobKey]*apps.Spec) int {
	layouts := map[jobKey][]int{}
	n := 0
	for key, app := range keys {
		family := key
		family.nodes = 0
		if !slices.ContainsFunc(layouts[family], func(m int) bool { return cluster.SameLayout(app, m, key.nodes) }) {
			layouts[family] = append(layouts[family], key.nodes)
			n++
		}
	}
	return n
}

// jobTracks splits a facility timeline into each job's event track and
// returns them with each job's launch time, read off its occupancy spans.
func jobTracks(tl *obs.Timeline) (tracks map[int][]trace.Event, starts map[int]int64) {
	tracks, starts = map[int][]trace.Event{}, map[int]int64{}
	first := tl.JobPid(0)
	for _, ev := range tl.Events().Snapshot() {
		if ev.Pid >= first {
			id := int(ev.Pid - first)
			tracks[id] = append(tracks[id], ev)
			continue
		}
		var id int
		if ev.Cat == "occupancy" && ev.Ph == trace.PhBegin {
			if _, err := fmt.Sscanf(ev.Name, "job %d ", &id); err == nil {
				starts[id] = ev.TS
			}
		}
	}
	return tracks, starts
}

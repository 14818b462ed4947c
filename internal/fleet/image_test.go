package fleet

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/obs"
	"mklite/internal/par"
	"mklite/internal/trace"
)

// imagePolicies are the legs TestFacilityMatchesFreshRuns runs: every
// kernel policy, and heuristic:gang.
var imagePolicies = []string{"fixed-linux", "fixed-mckernel", "fixed-mos", "heuristic", "specialize", "heuristic:gang"}

// TestFacilityMatchesFreshRuns is the differential check of the shared
// node images. Under each kernel policy, and heuristic:gang, a quick
// facility with per-job outcomes, merged and per-job counters and per-job
// event tracks runs its jobs on one view per image key of one image per
// node layout, and every job's outcome equals a fresh cluster.Run of its
// launch spec — the policy's choice, its co-tenancy plan
// (interferenceFor), its own application, timestep budget and seed.
// Elapsed time, FOM, the job's counters and its event track must match
// exactly. The leg prepares one image per layout (its keys split by
// cluster.SameLayout), fewer than it has keys, and builds one view per
// key, fewer than it has jobs; specialize's calibration cells are keys of
// the leg's store too.
//
// The "comparison" cell runs all six legs on one Images store, in order,
// so each leg after the first runs on images the earlier legs and the
// calibration prepared. Every job again equals a fresh run, every
// calibration cell's FOM equals a fresh cluster.Run of its calibration
// job, the store prepares exactly one image per distinct layout of the
// legs' and the calibration's keys, and each leg's Result JSON is
// byte-identical to the same leg run on a store of its own.
func TestFacilityMatchesFreshRuns(t *testing.T) {
	for _, name := range imagePolicies {
		t.Run(name, func(t *testing.T) {
			l := runLeg(t, name, nil)
			keys := l.keys()
			nLayouts := countLayouts(keys)
			imgs := l.s.images
			prepared := preparedImages(imgs)
			if len(prepared) != nLayouts || distinctImages(t, prepared) != nLayouts || nLayouts >= len(keys) {
				t.Fatalf("%d images prepared (%d distinct) for %d layouts of %d keys",
					len(prepared), distinctImages(t, prepared), nLayouts, len(keys))
			}
			views := make([]func() (*cluster.Image, error), 0, len(imgs.views))
			for _, v := range imgs.views {
				views = append(views, v)
			}
			if len(views) != len(keys) || distinctImages(t, views) != len(keys) || len(keys) >= len(l.res.PerJob) {
				t.Fatalf("%d views (%d distinct) for %d keys of %d jobs",
					len(views), distinctImages(t, views), len(keys), len(l.res.PerJob))
			}
			t.Logf("%d jobs, %d keys, %d layouts", len(l.res.PerJob), len(keys), nLayouts)
			l.matchFresh(t)
		})
	}

	t.Run("comparison", func(t *testing.T) {
		shared := NewImages()
		all := map[imageKey]*apps.Spec{}
		alone := 0
		var cal leg
		for _, name := range imagePolicies {
			l := runLeg(t, name, shared)
			l.matchFresh(t)
			for k, app := range l.keys() {
				all[k] = app
			}
			own := runLeg(t, name, nil)
			if a, b := resultBytes(t, l.res), resultBytes(t, own.res); string(a) != string(b) {
				t.Fatalf("%s: result on the shared store differs from the leg run alone:\nshared: %.300s\nalone:  %.300s", name, a, b)
			}
			alone += len(preparedImages(own.s.images))
			if name == "specialize" {
				cal = l
			}
		}
		nLayouts := countLayouts(all)
		prepared := preparedImages(shared)
		if len(prepared) != nLayouts || distinctImages(t, prepared) != nLayouts || nLayouts >= alone {
			t.Fatalf("shared store: %d images prepared (%d distinct) for %d layouts; the legs alone prepared %d",
				len(prepared), distinctImages(t, prepared), nLayouts, alone)
		}
		t.Logf("%d keys, %d layouts on the shared store; %d images prepared by the legs alone", len(all), nLayouts, alone)

		sp := cal.pol.(*specializePolicy)
		foms, err := calibrationFOMs(shared, sp.cells, sp.tmpl, 2, cal.s.counting, cal.s.budget)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(preparedImages(shared)); n != nLayouts {
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

// TestImagesSharedConcurrently: runs of two policies on one store at once,
// so both event loops and both launch pipelines, and the specialize
// calibration's fan-out, ask the store for images together, give the
// results each gives on a store of its own. Run it under -race.
func TestImagesSharedConcurrently(t *testing.T) {
	names := []string{"heuristic", "specialize"}
	run := func(name string, imgs *Images) (*Result, error) {
		cfg := quickCfg()
		cfg.Workers = 2
		cfg.Images = imgs
		pol, err := ParsePolicy(name, cfg.Seed, cfg.Workers, nil)
		if err != nil {
			return nil, err
		}
		cfg.Policy = pol
		return Run(cfg)
	}
	shared := NewImages()
	got, err := par.MapWidthErr(len(names), len(names), func(i int) (*Result, error) {
		return run(names[i], shared)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		alone, err := run(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(resultBytes(t, got[i])) != string(resultBytes(t, alone)) {
			t.Fatalf("%s: result on a store shared with a concurrent run differs from its run alone", name)
		}
	}
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
func runLeg(t *testing.T, name string, imgs *Images) leg {
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

// keys returns the image key of every job of the leg and, when its policy
// calibrates, of every calibration cell, each with its application.
func (l leg) keys() map[imageKey]*apps.Spec {
	keys := map[imageKey]*apps.Spec{}
	for _, out := range l.res.PerJob {
		j := l.stream[out.ID]
		ch := l.pol.Select(j)
		keys[imageKey{app: out.App, kernel: ch.Kernel, sched: ch.Sched, nodes: out.Nodes,
			plan:     planKeyOf(l.s.tmpl, out.Cotenancy, interferenceFor(l.cfg.Interference, out.Cotenancy)),
			counting: l.s.counting, budget: l.s.budget}] = j.App
	}
	if sp, ok := l.pol.(*specializePolicy); ok {
		for _, c := range sp.cells {
			keys[imageKey{app: c.App.Name, kernel: c.Kernel, nodes: c.Nodes,
				plan:     planKeyOf(l.s.images.template(sp.tmpl), 1, c.Faults),
				counting: l.s.counting, budget: l.s.budget}] = c.App
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
func countLayouts(keys map[imageKey]*apps.Spec) int {
	layouts := map[imageKey][]int{}
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

// preparedImages returns the store's prepare-once cells, one per layout.
func preparedImages(imgs *Images) []func() (*cluster.Image, error) {
	var prepared []func() (*cluster.Image, error)
	for _, ls := range imgs.layouts {
		for _, li := range ls {
			prepared = append(prepared, li.image)
		}
	}
	return prepared
}

// distinctImages calls every image function and counts the distinct
// images they return.
func distinctImages(t *testing.T, imgs []func() (*cluster.Image, error)) int {
	t.Helper()
	seen := map[*cluster.Image]bool{}
	for _, img := range imgs {
		v, err := img()
		if err != nil {
			t.Fatal(err)
		}
		seen[v] = true
	}
	return len(seen)
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

package fleet

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/obs"
	"mklite/internal/trace"
)

// TestFacilityMatchesFreshRuns is the differential check of the shared
// node images: under each kernel policy, and heuristic:gang, a quick
// facility with per-job outcomes, merged and per-job counters and per-job
// event tracks runs its jobs on one view per shape of one image per node
// layout, and every job's outcome equals a fresh cluster.Run of its launch
// spec — the policy's choice, its co-tenancy plan (interferenceFor), its
// own application, timestep budget and seed. Elapsed time, FOM, the job's
// counters and its event track must match exactly. The leg prepares one
// image per layout (its shapes split by cluster.SameLayout), fewer than it
// has shapes, and builds one view per shape, fewer than it has jobs.
func TestFacilityMatchesFreshRuns(t *testing.T) {
	for _, name := range []string{"fixed-linux", "fixed-mckernel", "fixed-mos", "heuristic", "specialize", "heuristic:gang"} {
		t.Run(name, func(t *testing.T) {
			cfg := quickCfg()
			cfg.Workers = 2
			pol, err := ParsePolicy(name, cfg.Seed, cfg.Workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = pol
			o := &obs.Options{
				Timeline:    obs.NewTimeline(cfg.Nodes, cfg.Share, 1<<20),
				JobCounters: true,
				JobEvents:   true,
				JobEventCap: 256,
			}
			cfg.Observe = o
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

			shapes := map[shape]*apps.Spec{}
			for _, out := range res.PerJob {
				j := stream[out.ID]
				ch := pol.Select(j)
				shapes[shape{app: out.App, kernel: ch.Kernel, sched: ch.Sched,
					nodes: out.Nodes, cotenancy: out.Cotenancy}] = j.App
			}
			layouts := map[shape][]int{}
			nLayouts := 0
			for key, app := range shapes {
				family := key
				family.nodes = 0
				if !slices.ContainsFunc(layouts[family], func(n int) bool { return cluster.SameLayout(app, n, key.nodes) }) {
					layouts[family] = append(layouts[family], key.nodes)
					nLayouts++
				}
			}
			distinct := func(imgs []func() (*cluster.Image, error)) int {
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
			var prepared []func() (*cluster.Image, error)
			for _, ls := range s.layouts {
				for _, li := range ls {
					prepared = append(prepared, li.image)
				}
			}
			if len(prepared) != nLayouts || distinct(prepared) != nLayouts || nLayouts >= len(shapes) {
				t.Fatalf("%d images prepared (%d distinct) for %d layouts of %d shapes",
					len(prepared), distinct(prepared), nLayouts, len(shapes))
			}
			if views := slices.Collect(maps.Values(s.images)); len(views) != len(shapes) ||
				distinct(views) != len(shapes) || len(shapes) >= len(res.PerJob) {
				t.Fatalf("%d views (%d distinct) for %d shapes of %d jobs",
					len(views), distinct(views), len(shapes), len(res.PerJob))
			}
			t.Logf("%d jobs, %d shapes, %d layouts", len(res.PerJob), len(shapes), nLayouts)

			tracks, starts := jobTracks(o.Timeline)
			for _, out := range res.PerJob {
				j := stream[out.ID]
				ch := pol.Select(j)
				c, ev := trace.NewCounters(), trace.NewEvents(o.JobEventRingCap())
				fresh, err := cluster.Run(cluster.Job{App: j.App, Kernel: ch.Kernel, Sched: ch.Sched,
					Nodes: j.Nodes, Seed: j.Seed, Sink: trace.NewSink(c, ev),
					Faults: interferenceFor(cfg.Interference, out.Cotenancy)})
				if err != nil {
					t.Fatal(err)
				}
				if e := (fresh.Setup + fresh.Elapsed).Seconds(); out.ElapsedSec != e || out.FOM != fresh.FOM {
					t.Fatalf("job %d: elapsed %v s, FOM %v; fresh %v s, %v", out.ID, out.ElapsedSec, out.FOM, e, fresh.FOM)
				}
				want := c.Map()
				got := map[string]int64{}
				prefix := "job/" + strconv.Itoa(out.ID) + "/"
				for name, v := range res.JobCounters {
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
		})
	}
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

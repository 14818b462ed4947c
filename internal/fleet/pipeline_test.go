package fleet

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mklite/internal/cluster"
	"mklite/internal/obs"
	"mklite/internal/par"
	"mklite/internal/sched"
	"mklite/internal/sim"
)

// TestResolvePanicsBelowLowerBound: the lookahead is only sound while every
// job ends at or after start + MinResident, so resolve must refuse a result
// that lands before the recorded bound. An honest bound resolves; one made
// deliberately too large trips the panic.
func TestResolvePanicsBelowLowerBound(t *testing.T) {
	cfg := quickCfg().normalize()
	stream, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newScheduler(cfg)
	s.pipe = par.NewPipe[runOut](1)
	defer s.pipe.Close()
	s.launch(s.newLaunch(stream[0], false))
	s.launch(s.newLaunch(stream[1], false))
	if err := s.resolve(0); err != nil {
		t.Fatal(err)
	}
	if r := s.running[0]; r.end.Before(r.minEnd) || r.minEnd <= r.start {
		t.Fatalf("honest bound: start %v minEnd %v end %v", r.start, r.minEnd, r.end)
	}
	s.pending[0].minEnd = s.pending[0].minEnd.Add(sim.Hour)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "before its lower bound") {
			t.Fatalf("inflated bound: recovered %q, want the lower-bound panic", msg)
		}
	}()
	s.resolve(0)
	t.Fatal("a completion before its lower bound resolved without panicking")
}

// failingPolicy wraps a policy and gives the listed jobs a scheduler name
// cluster.Run rejects, so their runs fail mid-stream.
type failingPolicy struct {
	base KernelPolicy
	bad  []int
}

func (p failingPolicy) Name() string { return "failing-" + p.base.Name() }
func (p failingPolicy) Select(j *Job) Choice {
	ch := p.base.Select(j)
	if slices.Contains(p.bad, j.ID) {
		ch.Sched = sched.Kind("no-such-sched")
	}
	return ch
}

// TestRunErrorWidthIndependent: when jobs fail mid-stream, Run reports the
// earliest-launched failing job's error — the same one at every pipeline
// width — and leaves no pipeline worker behind.
func TestRunErrorWidthIndependent(t *testing.T) {
	before := runtime.NumGoroutine()
	var ref string
	for _, w := range []int{1, 2, 4} {
		cfg := quickCfg()
		cfg.Workers = w
		cfg.Policy = failingPolicy{base: Heuristic(), bad: []int{61, 60, 90}}
		res, err := Run(cfg)
		if err == nil {
			t.Fatalf("width %d: run with failing jobs succeeded: %+v", w, res)
		}
		if !strings.Contains(err.Error(), "no-such-sched") {
			t.Fatalf("width %d: unexpected error %v", w, err)
		}
		if w == 1 {
			ref = err.Error()
		} else if err.Error() != ref {
			t.Fatalf("width %d error %q, width 1 error %q", w, err, ref)
		}
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("%d goroutines after the failed runs, %d before", n, before)
	}
}

// observedRun runs cfg at the given width with every obs backend attached
// and returns the result plus the three byte artifacts.
func observedRun(t *testing.T, cfg Config, width int) (res *Result, resB, tlB, dlB []byte, o *obs.Options) {
	t.Helper()
	cfg.Workers = width
	o = &obs.Options{
		Timeline:    obs.NewTimeline(cfg.Nodes, max(cfg.Share, 1), 0),
		Decisions:   obs.NewDecisionLog(),
		JobCounters: true,
		JobEvents:   true,
		JobEventCap: 64,
	}
	cfg.Observe = o
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := o.Decisions.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return res, resultBytes(t, res), o.Timeline.JSON(), dl, o
}

// FuzzFacility drives small facilities over random shapes — size, share,
// backfill depth, arrival rate, timestep budgets and policy with an
// optional scheduler suffix — and checks the schedule's invariants plus
// byte-identity of every artifact across pipeline widths 1, 2 and 4, on a
// store of the run's own and on an Images store a run of the next policy
// already warmed.
func FuzzFacility(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(1), uint8(2), uint16(5), uint8(2), uint8(4), uint8(3), uint8(0), true)
	f.Add(uint64(7), uint8(4), uint8(2), uint8(0), uint16(1), uint8(0), uint8(7), uint8(4), uint8(2), true)
	f.Add(uint64(3), uint8(60), uint8(0), uint8(5), uint16(40), uint8(5), uint8(2), uint8(0), uint8(6), false)
	f.Fuzz(func(t *testing.T, seed uint64, nodes, share, depth uint8, arrivalMs uint16,
		minTS, spanTS, policy, schedIdx uint8, backfill bool) {
		names := PolicyNames()
		name := names[int(policy)%len(names)]
		if k := int(schedIdx) % (len(sched.Kinds()) + 1); k > 0 {
			name += ":" + string(sched.Kinds()[k-1])
		}
		cfg := Config{
			Nodes:         16 + int(nodes)%49, // MiniFE's smallest evaluated size is 16
			Jobs:          16,
			Seed:          seed,
			Share:         1 + int(share)%3,
			Backfill:      backfill,
			BackfillDepth: int(depth) % 8,
			ArrivalMean:   sim.Duration(1+int(arrivalMs)%80) * sim.Millisecond,
			MaxJobNodes:   16,
			MinTimesteps:  2 + int(minTS)%8,
			Counters:      true,
			PerJob:        true,
		}
		cfg.MaxTimesteps = cfg.MinTimesteps + int(spanTS)%8
		pol, err := ParsePolicy(name, seed, 1, cfg.normalize().Interference)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = pol

		res, resB, tlB, dlB, o := observedRun(t, cfg, 1)
		checkSchedule(t, cfg, res, o)
		for _, w := range []int{2, 4} {
			_, rB, tB, dB, _ := observedRun(t, cfg, w)
			if !bytes.Equal(resB, rB) {
				t.Fatalf("%s: result differs between widths 1 and %d", name, w)
			}
			if !bytes.Equal(tlB, tB) {
				t.Fatalf("%s: timeline differs between widths 1 and %d", name, w)
			}
			if !bytes.Equal(dlB, dB) {
				t.Fatalf("%s: decision log differs between widths 1 and %d", name, w)
			}
		}

		// The same config, under a policy of its own, on a store that a
		// run of another policy warmed: every artifact as on a fresh store.
		warm := cfg
		warm.Images = cluster.NewImages()
		if warm.Policy, err = ParsePolicy(names[(int(policy)+1)%len(names)], seed, 1, cfg.normalize().Interference); err != nil {
			t.Fatal(err)
		}
		observedRun(t, warm, 1)
		shared := cfg
		shared.Images = warm.Images
		if shared.Policy, err = ParsePolicy(name, seed, 1, cfg.normalize().Interference); err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4} {
			_, rB, tB, dB, _ := observedRun(t, shared, w)
			if !bytes.Equal(resB, rB) || !bytes.Equal(tlB, tB) || !bytes.Equal(dlB, dB) {
				t.Fatalf("%s at width %d on a store a %s run warmed: result %t, timeline %t, decision log %t equal to a fresh store's",
					name, w, warm.Policy.Name(), bytes.Equal(resB, rB), bytes.Equal(tlB, tB), bytes.Equal(dlB, dB))
			}
		}
	})
}

// checkSchedule asserts a finished run's schedule invariants: every job
// launched and completed exactly once, no node ever held more than Share
// jobs, and utilization within (0, 100].
func checkSchedule(t *testing.T, cfg Config, res *Result, o *obs.Options) {
	t.Helper()
	cfg = cfg.normalize()
	if res.Jobs != cfg.Jobs || res.Counters["fleet.jobs_launched"] != int64(cfg.Jobs) ||
		res.Counters["fleet.jobs_completed"] != int64(cfg.Jobs) {
		t.Fatalf("launched %d (counter %d), completed %d, of %d jobs", res.Jobs,
			res.Counters["fleet.jobs_launched"], res.Counters["fleet.jobs_completed"], cfg.Jobs)
	}
	if o.Timeline.Open() != 0 {
		t.Fatalf("%d jobs still resident on the timeline", o.Timeline.Open())
	}
	ds := o.Decisions.Decisions()
	if len(ds) != cfg.Jobs {
		t.Fatalf("%d launch decisions for %d jobs", len(ds), cfg.Jobs)
	}
	seen := make([]bool, cfg.Jobs)
	type edge struct {
		at    int64
		delta int // -1 end, +1 start: ends sort first at equal instants
		nodes []int
	}
	var edges []edge
	for _, d := range ds {
		if seen[d.Job] {
			t.Fatalf("job %d launched twice", d.Job)
		}
		seen[d.Job] = true
		out := res.PerJob[d.Job]
		start := int64(math.Round(out.StartSec * 1e9))
		end := start + int64(math.Round(out.ElapsedSec*1e9))
		if start != d.TimeNs || out.StartSec < out.ArrivalSec || end <= start || len(d.Nodes) != out.Nodes {
			t.Fatalf("job %d: decision at %d, outcome %+v", d.Job, d.TimeNs, out)
		}
		edges = append(edges, edge{start, +1, d.Nodes}, edge{end, -1, d.Nodes})
	}
	slices.SortStableFunc(edges, func(a, b edge) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return a.delta - b.delta
	})
	occ := make([]int, cfg.Nodes)
	for _, e := range edges {
		for _, n := range e.nodes {
			occ[n] += e.delta
			if occ[n] > cfg.Share {
				t.Fatalf("node %d holds %d jobs at %d ns (share %d)", n, occ[n], e.at, cfg.Share)
			}
		}
	}
	if res.UtilizationPct <= 0 || res.UtilizationPct > 100 {
		t.Fatalf("utilization %v%% out of (0, 100]", res.UtilizationPct)
	}
}

package fleet

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"mklite/internal/obs"
	"mklite/internal/trace"
)

// observedCfg is quickCfg with every obs backend attached.
func observedCfg() (Config, *obs.Options) {
	cfg := quickCfg()
	o := &obs.Options{
		Timeline:    obs.NewTimeline(cfg.Nodes, cfg.Share, 0),
		Decisions:   obs.NewDecisionLog(),
		JobCounters: true,
		JobEvents:   true,
	}
	cfg.Observe = o
	return cfg, o
}

// TestObsDisabledByteInvisible: a run with Observe nil and a run with an
// attached-but-empty Options must produce byte-identical Results, and none
// of the new JSON fields may appear — observability off is indistinguishable
// from observability not existing.
func TestObsDisabledByteInvisible(t *testing.T) {
	base := resultBytes(t, mustRun(t, quickCfg()))
	cfg := quickCfg()
	cfg.Observe = &obs.Options{}
	empty := resultBytes(t, mustRun(t, cfg))
	if !bytes.Equal(base, empty) {
		t.Fatal("empty Observe options changed the result bytes")
	}
	for _, field := range []string{"job_counters", "slo", "degraded_jobs"} {
		if bytes.Contains(base, []byte(`"`+field+`"`)) {
			t.Fatalf("disabled run leaked %q into the result JSON", field)
		}
	}
}

// TestJobCounterProvenance is the satellite's golden test: the flat merged
// counter map is unchanged by the namespaced view, and the namespaced view
// re-derives it — for every cluster-level counter x, the sum of
// job/<id>/x over all jobs equals flat x.
func TestJobCounterProvenance(t *testing.T) {
	flatOnly := mustRun(t, quickCfg())

	cfg, _ := observedCfg()
	res := mustRun(t, cfg)

	if !maps.Equal(flatOnly.Counters, res.Counters) {
		t.Fatal("enabling the namespaced view changed the flat merged counters")
	}
	if len(res.JobCounters) == 0 {
		t.Fatal("JobCounters empty with Observe.JobCounters set")
	}

	// Rebuild the per-job contributions from the namespaced view.
	sums := map[string]int64{}
	for _, k := range slices.Sorted(maps.Keys(res.JobCounters)) {
		rest, ok := strings.CutPrefix(k, "job/")
		if !ok {
			t.Fatalf("JobCounters key %q lacks the job/ prefix", k)
		}
		id, name, ok := strings.Cut(rest, "/")
		if !ok || id == "" || name == "" {
			t.Fatalf("JobCounters key %q is not job/<id>/<name>", k)
		}
		sums[name] += res.JobCounters[k]
	}
	// Every non-scheduler counter in the flat map must be exactly the sum of
	// its per-job parts (fleet.* counters are scheduler-side, never per-job).
	for _, name := range slices.Sorted(maps.Keys(res.Counters)) {
		if strings.HasPrefix(name, "fleet.") {
			if sums[name] != 0 {
				t.Fatalf("scheduler counter %s appeared in the per-job view", name)
			}
			continue
		}
		if sums[name] != res.Counters[name] {
			t.Fatalf("counter %s: flat %d != sum of per-job parts %d",
				name, res.Counters[name], sums[name])
		}
	}
	// Golden scheduler counters for quickCfg (pins the flat map's fleet.*
	// tier alongside the provenance identity above).
	for name, want := range map[string]int64{
		"fleet.jobs_launched":  120,
		"fleet.jobs_completed": 120,
	} {
		if got := res.Counters[name]; got != want {
			t.Fatalf("golden counter %s = %d, want %d", name, got, want)
		}
	}
}

// TestJobCountersWithoutFlat: the namespaced view works with the flat merge
// off — per-job counters are still collected, Result.Counters stays empty.
func TestJobCountersWithoutFlat(t *testing.T) {
	cfg := quickCfg()
	cfg.Counters = false
	cfg.Observe = &obs.Options{JobCounters: true}
	res := mustRun(t, cfg)
	if res.Counters != nil {
		t.Fatal("flat counters appeared with Config.Counters off")
	}
	if len(res.JobCounters) == 0 {
		t.Fatal("JobCounters empty with the flat merge off")
	}
}

// TestObsWidthEquivalence: every observability artifact — result (with
// namespaced counters and SLO report), timeline JSON, decision log JSON —
// is byte-identical between pipeline widths 1, 4 and GOMAXPROCS.
func TestObsWidthEquivalence(t *testing.T) {
	run := func(workers int) (resB, tlB, dlB []byte) {
		cfg, o := observedCfg()
		cfg.Workers = workers
		var err error
		cfg.SLO, err = obs.ParseSLO("wait_p99_sec<=1e9;utilization_pct>=0;degraded_jobs<=0")
		if err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, cfg)
		dl, err := o.Decisions.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return resultBytes(t, res), o.Timeline.JSON(), dl
	}
	res1, tl1, dl1 := run(1)
	for _, w := range []int{4, 0} {
		resW, tlW, dlW := run(w)
		if !bytes.Equal(res1, resW) {
			t.Fatalf("observed result differs between widths 1 and %d (0 = GOMAXPROCS)", w)
		}
		if !bytes.Equal(tl1, tlW) {
			t.Fatalf("timeline JSON differs between widths 1 and %d (0 = GOMAXPROCS)", w)
		}
		if !bytes.Equal(dl1, dlW) {
			t.Fatalf("decision log differs between widths 1 and %d (0 = GOMAXPROCS)", w)
		}
	}
}

// TestObsQuickRunArtifacts checks the artifact content on the quick
// facility: a valid, span-balanced timeline; counter series covering every
// clock event; decisions for every job with backfill evidence that matches
// Result.Backfilled.
func TestObsQuickRunArtifacts(t *testing.T) {
	cfg, o := observedCfg()
	res := mustRun(t, cfg)

	if o.Timeline.Open() != 0 {
		t.Fatalf("%d jobs still resident after the run drained", o.Timeline.Open())
	}
	out := o.Timeline.JSON()
	if err := trace.Validate(out); err != nil {
		t.Fatalf("timeline failed validation: %v", err)
	}
	if qs := o.Timeline.Events().CounterSeries(obs.SeriesQueueDepth); len(qs) == 0 {
		t.Fatal("no queue-depth samples")
	}

	ds := o.Decisions.Decisions()
	if len(ds) != cfg.Jobs {
		t.Fatalf("%d decisions for %d jobs", len(ds), cfg.Jobs)
	}
	backfills := 0
	for _, d := range ds {
		switch d.Kind {
		case obs.KindFIFO:
			if d.Backfill != nil {
				t.Fatalf("job %d: FIFO decision carries backfill evidence", d.Job)
			}
		case obs.KindBackfill:
			backfills++
			ev := d.Backfill
			if ev == nil || len(ev.Reservations) == 0 {
				t.Fatalf("job %d: backfill decision without evidence", d.Job)
			}
			// The head's reservation leads the snapshot, and the launch must
			// not start after the head's reserved start (conservative
			// invariant, re-checkable from the log alone).
			if ev.Reservations[0].Job != ev.HeadJob {
				t.Fatalf("job %d: evidence head %d not first in reservations", d.Job, ev.HeadJob)
			}
			if d.TimeNs > ev.HeadStartNs {
				t.Fatalf("job %d: backfilled at %d after head's reserved start %d",
					d.Job, d.TimeNs, ev.HeadStartNs)
			}
		default:
			t.Fatalf("job %d: unknown decision kind %q", d.Job, d.Kind)
		}
		if len(d.Nodes) == 0 || d.Kernel == "" {
			t.Fatalf("job %d: decision missing allocation or kernel", d.Job)
		}
	}
	if backfills != res.Backfilled {
		t.Fatalf("decision log has %d backfills, result reports %d", backfills, res.Backfilled)
	}
}

// TestObsFullScaleTimeline is the acceptance gate at issue scale: the
// facility timeline of a 256-node, 1,000-job run is valid Chrome trace JSON
// (monotone per-lane timestamps, balanced spans — what Perfetto needs), with
// every job decided and every node track inside the facility pid range.
func TestObsFullScaleTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale facility run (use TestObsQuickRunArtifacts)")
	}
	cfg := Config{
		Nodes:       256,
		Jobs:        1000,
		Seed:        1,
		Backfill:    true,
		Share:       2,
		ArrivalMean: DefaultArrivalMean / 4,
	}
	o := &obs.Options{
		Timeline:  obs.NewTimeline(cfg.Nodes, cfg.Share, 0),
		Decisions: obs.NewDecisionLog(),
	}
	cfg.Observe = o
	res := mustRun(t, cfg)
	if res.Jobs != 1000 {
		t.Fatalf("launched %d jobs, want 1000", res.Jobs)
	}
	out := o.Timeline.JSON()
	if err := trace.Validate(out); err != nil {
		t.Fatalf("full-scale timeline failed validation: %v", err)
	}
	if d := o.Timeline.Events().Dropped(); d != 0 {
		t.Fatalf("full-scale timeline evicted %d events; raise DefaultTimelineCap", d)
	}
	evs, _, err := trace.ParseEvents(out)
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range evs {
		if ev.Ph == trace.PhBegin || ev.Ph == trace.PhEnd {
			spans++
			if int(ev.Pid) >= cfg.Nodes {
				t.Fatalf("occupancy span %q on pid %d, outside the %d node tracks", ev.Name, ev.Pid, cfg.Nodes)
			}
		}
	}
	if spans == 0 {
		t.Fatal("timeline has no occupancy spans")
	}
	if got := o.Decisions.Len(); got != 1000 {
		t.Fatalf("decision log has %d records, want 1000", got)
	}
}

// TestSLOWatchdog: the three issue-named SLO kinds evaluate deterministically
// in Result.SLO; an impossible rule fails the report without failing the
// run; an unknown metric fails the run itself.
func TestSLOWatchdog(t *testing.T) {
	cfg := quickCfg()
	var err error
	cfg.SLO, err = obs.ParseSLO("wait_p99_sec<=1e9;utilization_pct>=1;degraded_jobs<=0")
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, cfg)
	if res.SLO == nil || !res.SLO.Passed || len(res.SLO.Results) != 3 {
		t.Fatalf("SLO report = %+v, want 3 passing rules", res.SLO)
	}

	cfg.SLO, err = obs.ParseSLO(fmt.Sprintf("utilization_pct>=%f", res.UtilizationPct+1))
	if err != nil {
		t.Fatal(err)
	}
	failRes := mustRun(t, cfg)
	if failRes.SLO == nil || failRes.SLO.Passed {
		t.Fatal("impossible utilization rule passed")
	}

	cfg.SLO = &obs.SLO{Rules: []obs.SLORule{{Metric: "no_such_metric", Op: obs.OpLE, Threshold: 1}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown SLO metric did not fail the run")
	}
}

// TestTimelineDimensionMismatch: a timeline built for the wrong facility
// shape is a config error, not a latent panic.
func TestTimelineDimensionMismatch(t *testing.T) {
	cfg := quickCfg()
	cfg.Observe = &obs.Options{Timeline: obs.NewTimeline(cfg.Nodes/2, cfg.Share, 0)}
	if _, err := Run(cfg); err == nil {
		t.Fatal("mismatched timeline dimensions accepted")
	}
}

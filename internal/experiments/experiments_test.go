package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mklite/internal/sim"
	"mklite/internal/stats"
)

// quick is the test configuration: 3 reps, 3 node counts per app.
func quick() Config { return Config{Reps: 3, Seed: 1, Quick: true} }

func TestFigure4ShapesAndSummary(t *testing.T) {
	figs, err := Figure4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 8 {
		t.Fatalf("Figure 4 covers %d apps, want 8", len(figs))
	}
	for _, fig := range figs {
		if len(fig.Series) != 3 {
			t.Fatalf("%s: %d series", fig.ID, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Points) != 3 {
				t.Fatalf("%s/%s: %d points in quick mode", fig.ID, s.Name, len(s.Points))
			}
		}
	}
	sum := SummarizeFigure4(figs)
	// The paper reports "a median performance improvement of 9% with
	// some applications as high as 280%". Accept generous bands around
	// both: median in [0%, 40%], best in [2x, 12x].
	if sum.MedianImprovement < 1.0 || sum.MedianImprovement > 1.4 {
		t.Fatalf("median improvement %v outside band", sum.MedianImprovement)
	}
	if sum.BestImprovement < 2 || sum.BestImprovement > 12 {
		t.Fatalf("best improvement %v outside band", sum.BestImprovement)
	}
	if !strings.Contains(sum.BestApp, "minife") {
		t.Fatalf("best app should be minife (the 7x cliff), got %q", sum.BestApp)
	}
}

func TestFigure5aOrderingAndGrowth(t *testing.T) {
	fig, err := Figure5a(quick())
	if err != nil {
		t.Fatal(err)
	}
	mck, mos := fig.Get("McKernel"), fig.Get("mOS")
	if mck == nil || mos == nil {
		t.Fatal("missing series")
	}
	for _, s := range []struct {
		name   string
		lo, hi float64
	}{
		{"McKernel", 105, 160}, {"mOS", 100, 150},
	} {
		ser := fig.Get(s.name)
		first := ser.Points[0].Median
		last := ser.Points[len(ser.Points)-1].Median
		if first < s.lo || last > s.hi {
			t.Fatalf("%s: %% of Linux spans [%v, %v], outside [%v, %v]",
				s.name, first, last, s.lo, s.hi)
		}
		if last <= first {
			t.Fatalf("%s advantage should grow with scale: %v -> %v", s.name, first, last)
		}
	}
	// "up to 39% and 28% improvement on McKernel and mOS": McKernel
	// must lead mOS at the largest scale.
	lastN := mck.Points[len(mck.Points)-1]
	mosLast, _ := mos.At(lastN.Nodes)
	if lastN.Median <= mosLast.Median {
		t.Fatalf("McKernel (%v%%) should lead mOS (%v%%) at scale", lastN.Median, mosLast.Median)
	}
}

func TestFigure5bCliff(t *testing.T) {
	fig, err := Figure5b(quick())
	if err != nil {
		t.Fatal(err)
	}
	lin, mck := fig.Get("Linux"), fig.Get("McKernel")
	if lin == nil || mck == nil || fig.Get("mOS") == nil || !strings.Contains(fig.Render(), "fig5b") || !strings.Contains(fig.Render(), "McKernel") {
		t.Fatalf("Figure 5b series:\n%s", fig.Render())
	}
	nodes := mck.NodeCounts()
	biggest := nodes[len(nodes)-1]
	lp, _ := lin.At(biggest)
	mp, _ := mck.At(biggest)
	ratio := mp.Median / lp.Median
	// "almost seven times faster" at 1,024 nodes; at the sweep's top
	// (2,048) the gap is at least that.
	if ratio < 4 {
		t.Fatalf("miniFE LWK/Linux at %d nodes = %v, want a cliff", biggest, ratio)
	}
	// LWK keeps scaling; Linux flattens: Linux's speedup from first to
	// last point must trail the LWK's.
	linGain := lp.Median / lin.Points[0].Median
	mckGain := mp.Median / mck.Points[0].Median
	if linGain >= mckGain {
		t.Fatalf("Linux scaled better than the LWK: %v vs %v", linGain, mckGain)
	}
}

// renderedRows is the number of data rows a rendered table shows: every
// line after the header and its separator.
func renderedRows(tb *stats.Table) int {
	return strings.Count(strings.TrimRight(tb.Render(), "\n"), "\n") - 1
}

func TestTableI(t *testing.T) {
	rows, tb, err := TableI(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || renderedRows(tb) != 3 || !strings.Contains(tb.Render(), "zones/s") {
		t.Fatalf("Table I rows: %d\n%s", len(rows), tb.Render())
	}
	if rows[0].Percent != 100 {
		t.Fatalf("Linux row not 100%%: %v", rows[0].Percent)
	}
	// Ordering: Linux < mOS-heap-off < mOS-heap-on, as in the paper
	// (100.0% < 106.6% < 121.0%).
	if !(rows[0].ZonesPS < rows[1].ZonesPS && rows[1].ZonesPS < rows[2].ZonesPS) {
		t.Fatalf("Table I ordering violated: %+v", rows)
	}
	// Bands around the paper's ratios.
	if rows[1].Percent <= 100 || rows[1].Percent > 115 {
		t.Fatalf("heap-disabled row %v%%, paper 106.6%%", rows[1].Percent)
	}
	if rows[2].Percent < 110 || rows[2].Percent > 135 {
		t.Fatalf("regular-heap row %v%%, paper 121.0%%", rows[2].Percent)
	}
}

func TestLTPResults(t *testing.T) {
	reports, tb, err := LTPResultsWorkers(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 || renderedRows(tb) != 3 {
		t.Fatal("LTP table shape")
	}
	want := map[string]int{"linux": 0, "mckernel": 32, "mos": 111}
	for _, rep := range reports {
		if rep.Failed != want[rep.Kernel] {
			t.Fatalf("%s failed %d, want %d", rep.Kernel, rep.Failed, want[rep.Kernel])
		}
		if rep.Total != 3328 {
			t.Fatalf("%s ran %d cases, want 3328", rep.Kernel, rep.Total)
		}
	}
	if !strings.Contains(tb.Render(), "mckernel") {
		t.Fatalf("LTP table:\n%s", tb.Render())
	}
}

func TestBrkTrace(t *testing.T) {
	traces, err := BrkTrace(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatal("trace count")
	}
	for _, tr := range traces {
		// Per-step mix 15:6:3 over 40 steps = 600:240:120.
		if tr.Queries != 600 || tr.Grows != 240 || tr.Shrinks != 120 {
			t.Fatalf("%s: trace %d:%d:%d", tr.Kernel, tr.Queries, tr.Grows, tr.Shrinks)
		}
		if tr.Calls != 960 || tr.Calls != tr.Queries+tr.Grows+tr.Shrinks {
			t.Fatalf("calls = %d", tr.Calls)
		}
		// Cumulative growth dwarfs the peak (the 22 GB vs 87 MB
		// phenomenon).
		if tr.CumulativeBytes < 10*tr.PeakBytes {
			t.Fatalf("%s: cumulative %d vs peak %d", tr.Kernel, tr.CumulativeBytes, tr.PeakBytes)
		}
		if tr.Kernel == "Linux" && tr.HeapFaults == 0 {
			t.Fatal("Linux heap must fault")
		}
		if tr.Kernel != "Linux" && tr.HeapFaults != 0 {
			t.Fatalf("%s heap faulted %d times", tr.Kernel, tr.HeapFaults)
		}
	}
}

func TestProxyOptions(t *testing.T) {
	res, err := ProxyOptions(Config{Reps: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatal("two apps expected")
	}
	// Paper: +9% (AMG 2013) and +2% (MiniFE) on 16 nodes.
	amg, minife := res[0], res[1]
	if amg.App != "amg2013" || minife.App != "minife" {
		t.Fatalf("apps: %+v", res)
	}
	if amg.GainPercent < 3 || amg.GainPercent > 20 {
		t.Fatalf("AMG gain %v%%, paper 9%%", amg.GainPercent)
	}
	if minife.GainPercent < 0.3 || minife.GainPercent > 10 {
		t.Fatalf("MiniFE gain %v%%, paper 2%%", minife.GainPercent)
	}
	if amg.GainPercent <= minife.GainPercent {
		t.Fatal("AMG should benefit more than MiniFE")
	}
}

func TestCCSQCDDDROnly(t *testing.T) {
	res, err := CCSQCDDDROnly(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~5% slowdown. Accept 1-30%.
	if res.SlowdownPercent < 1 || res.SlowdownPercent > 30 {
		t.Fatalf("DDR-only slowdown %v%% outside band", res.SlowdownPercent)
	}
}

func TestAblations(t *testing.T) {
	a, err := Ablations(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Noise ordering: LWKs << tuned Linux << untuned Linux.
	if !(a.FWQNoisePercent["mckernel"] < a.FWQNoisePercent["linux-tuned"]) {
		t.Fatalf("FWQ: %v", a.FWQNoisePercent)
	}
	if !(a.FWQNoisePercent["linux-tuned"] < a.FWQNoisePercent["linux-untuned"]) {
		t.Fatalf("FWQ tuning: %v", a.FWQNoisePercent)
	}
	// Offload cost ordering: native < migration < proxy.
	if !(a.OffloadRoundTrip["linux-native"] < a.OffloadRoundTrip["mos-migration"] &&
		a.OffloadRoundTrip["mos-migration"] < a.OffloadRoundTrip["mckernel-proxy"]) {
		t.Fatalf("offload costs: %v", a.OffloadRoundTrip)
	}
	// Cooperative scheduling beats time sharing for the batch.
	if a.SchedulerMakespan["cooperative-lwk"] >= a.SchedulerMakespan["time-shared-linux"] {
		t.Fatalf("scheduler: %v", a.SchedulerMakespan)
	}
	// 64 simultaneous offloads into one proxy queue up.
	if a.IKCQueueingTail < 64*2000 { // 64 x 2us service minimum
		t.Fatalf("queueing tail %v implausibly low", a.IKCQueueingTail)
	}
	out := RenderAblations(a)
	if !strings.Contains(out, "FWQ") || !strings.Contains(out, "IKC") {
		t.Fatal("render")
	}
}

// Ablations repeats exactly from call to call and leaves nothing running:
// the FWQ profiles take their RNG splits in sorted name order (map order
// would reshuffle which profile gets which stream), and the IKC engine is
// drained so its offload-server process unwinds. The scheduler makespans
// are the exact values of the batch the section II ablation describes.
func TestAblationsDeterministicAndLeakFree(t *testing.T) {
	first, err := Ablations(quick())
	if err != nil {
		t.Fatal(err)
	}
	if got := first.SchedulerMakespan["cooperative-lwk"]; got != 400*sim.Millisecond+7*sim.Microsecond {
		t.Errorf("cooperative-lwk makespan %v", got)
	}
	if got := first.SchedulerMakespan["time-shared-linux"]; got != 400378078 {
		t.Errorf("time-shared-linux makespan %v", got)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		again, err := Ablations(quick())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d differs:\n%+v\nvs first\n%+v", i+2, again, first)
		}
	}
	// Drain returns only after every drained process's goroutine has
	// exited, so the count is exact right after the calls.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d over 5 Ablations calls", before, after)
	}
}

func TestRelativeFigureDropsBaseline(t *testing.T) {
	fig, err := Figure5b(quick())
	if err != nil {
		t.Fatal(err)
	}
	rel := RelativeFigure(fig)
	if rel.Get("Linux") != nil {
		t.Fatal("baseline kept")
	}
	if len(rel.Series) != 2 {
		t.Fatal("relative series count")
	}
	mck := rel.Get("McKernel")
	if mck == nil || mck.Unit != "x Linux" {
		t.Fatalf("relative series: %+v", mck)
	}
	if last := mck.Points[len(mck.Points)-1]; last.Median < 2 {
		t.Fatalf("relative miniFE at %d nodes = %v, expected a cliff", last.Nodes, last.Median)
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.Reps != 5 || c.Seed != 1 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestQuadrantComparison(t *testing.T) {
	rows, err := QuadrantComparison(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Percent != 100 {
		t.Fatalf("rows: %+v", rows)
	}
	linSNC, linQuad, mck := rows[0], rows[1], rows[2]
	// Quadrant-mode Linux must recover a large share of the LWK
	// advantage over SNC-4 DDR-only Linux...
	if linQuad.FOM <= linSNC.FOM {
		t.Fatalf("quadrant Linux (%v) should beat SNC-4 DDR-only Linux (%v)", linQuad.FOM, linSNC.FOM)
	}
	// ...but the LWK on SNC-4 keeps the hardware headroom.
	if mck.FOM <= linQuad.FOM {
		t.Fatalf("McKernel SNC-4 (%v) should stay ahead of quadrant Linux (%v)", mck.FOM, linQuad.FOM)
	}
}

func TestCoreSpecialization(t *testing.T) {
	rows, err := CoreSpecialization(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("row count")
	}
	lin68, lin64, mos64 := rows[0], rows[1], rows[2]
	// Reserving OS cores helps Linux (core 0's services stop gating the
	// application)...
	if lin64.FOM <= lin68.FOM {
		t.Fatalf("core specialisation did not help Linux: %v vs %v", lin64.FOM, lin68.FOM)
	}
	// ...and "mOS using 64 ... cores beats Linux on 68 cores".
	if mos64.FOM <= lin68.FOM {
		t.Fatalf("mOS-64 (%v) should beat Linux-68 (%v)", mos64.FOM, lin68.FOM)
	}
}

func TestBrkTraceS30Replay(t *testing.T) {
	res, err := BrkTraceS30()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatal("kernel count")
	}
	var lin, mck BrkTraceS30Result
	for _, r := range res {
		if r.Calls != 12053 {
			t.Fatalf("%s saw %d calls, want 12053", r.Kernel, r.Calls)
		}
		if r.PeakBytes < 80<<20 || r.PeakBytes > 95<<20 {
			t.Fatalf("%s peak %d", r.Kernel, r.PeakBytes)
		}
		if r.CumulativeBytes < 20<<30 {
			t.Fatalf("%s cumulative %d", r.Kernel, r.CumulativeBytes)
		}
		switch r.Kernel {
		case "Linux":
			lin = r
		case "McKernel":
			mck = r
		}
	}
	// The headline asymmetry: Linux pays faults and ~22 GB of clearing;
	// the LWK heap pays neither.
	if lin.HeapFaults == 0 || mck.HeapFaults != 0 {
		t.Fatalf("fault asymmetry: linux %d, mckernel %d", lin.HeapFaults, mck.HeapFaults)
	}
	if lin.ZeroedBytes < 20<<30 {
		t.Fatalf("Linux zeroed only %d", lin.ZeroedBytes)
	}
	if mck.ZeroedBytes > 1<<30 {
		t.Fatalf("McKernel zeroed %d, should be first-4K only", mck.ZeroedBytes)
	}
	if lin.KernelTimeSecs < 10*mck.KernelTimeSecs {
		t.Fatalf("kernel time: linux %v vs mckernel %v", lin.KernelTimeSecs, mck.KernelTimeSecs)
	}
}

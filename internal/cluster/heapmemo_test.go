package cluster

import (
	"context"
	"encoding/binary"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/mem"
	"mklite/internal/metrics"
	"mklite/internal/mos"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// refHeapReplay is the heap phase without a memo: every rank replays the
// brk trace at every step. It is the oracle heapReplay is checked against,
// kept the way the noise package keeps its retired per-rank loop. It
// returns the slowest rank's cost per step.
func refHeapReplay(ns *nodeState, ops []int64, brkTime sim.Duration, costs kernel.Costs, sink *trace.Sink, steps int) []sim.Duration {
	maxes := make([]sim.Duration, steps)
	for s := range maxes {
		for ri, h := range ns.heaps {
			var cost sim.Duration
			var work mem.Work
			for _, delta := range ops {
				cost += brkTime
				if _, w, err := h.Sbrk(delta); err == nil {
					work.Accumulate(w)
				}
				if delta > 0 {
					work.Accumulate(h.TouchUpTo(h.Size()))
				}
			}
			cost += costs.WorkTime(work)
			maxes[s] = max(maxes[s], cost)
			sink.ObserveRank("heap.cost_ns", ri, int64(cost))
		}
	}
	return maxes
}

// obsEvent is one observation as an observer received it.
type obsEvent struct {
	name string
	rank int // -1 for Observe
	v    int64
}

// obsLog is an observer that keeps every Observe and ObserveRank call in
// order, so two runs' emission sequences can be compared exactly.
type obsLog struct{ events []obsEvent }

func (o *obsLog) Observe(name string, v int64) {
	o.events = append(o.events, obsEvent{name: name, rank: -1, v: v})
}
func (o *obsLog) ObserveRank(name string, rank int, v int64) {
	o.events = append(o.events, obsEvent{name: name, rank: rank, v: v})
}
func (o *obsLog) AddPhase(string, int64) {}
func (o *obsLog) SetGauge(string, int64) {}

// heapOutcome is everything a heap phase leaves behind that a run reports.
type heapOutcome struct {
	maxes    []sim.Duration
	stats    mem.HeapStats
	counters map[string]int64
	obs      []obsEvent
	mcdram   int64
	demand   int
	replayed int // steps Prepare replayed; 0 for the reference
}

// replayHeap runs steps steps of j's heap phase on a fresh node, with
// counters and an observation log attached from the start: through the
// prepared image when memo is set — setup's recorded emissions, then each
// step's as a run plays them — and through refHeapReplay otherwise.
func replayHeap(t testing.TB, j Job, steps int, memo bool) heapOutcome {
	t.Helper()
	j = j.normalized()
	ctrs, log := trace.NewCounters(), &obsLog{}
	j.Sink = trace.NewSinkObs(ctrs, nil, log)
	var out heapOutcome
	if memo {
		img, err := Prepare(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		img.setupEmits.play(j.Sink)
		for s := range steps {
			img.heap.emit(s, j.Sink)
			out.maxes = append(out.maxes, img.heap.cost(s))
		}
		img.heap.finish(steps, j.Sink)
		acct := img.heap.acct(steps)
		out.stats, out.mcdram, out.demand = acct.heap, acct.mcdram, img.demandRanks
		out.replayed = len(img.heap.steps)
	} else {
		k, err := bootKernel(j)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := setupNode(k, j)
		if err != nil {
			t.Fatal(err)
		}
		ops := j.App.HeapOpsPerStep(j.Nodes)
		out.maxes = refHeapReplay(ns, ops, k.SyscallTime(kernel.SysBrk), k.Costs(), j.Sink, steps)
		if len(ns.heaps) > 0 {
			out.stats = ns.heaps[0].Stats()
		}
		out.mcdram = mcdramResidency(ns)
		out.demand = countDemandRanks(ns)
	}
	out.counters = ctrs.Map()
	out.obs = log.events
	return out
}

// checkHeapMemo checks the memoised heap phase against the reference,
// first phase against phase on fresh nodes (costs, rank 0's accounting,
// every counter, the exact observation sequence, MCDRAM residency and
// demand-paged ranks), then through a whole traced run (each step's heap
// time, HeapStats, the heap and mem counters, the heap.cost_ns and
// mem.fault_pages distributions, MCDRAMBytes and DemandRanks). It returns
// the memoised phase's outcome.
func checkHeapMemo(t *testing.T, j Job) heapOutcome {
	t.Helper()
	steps := j.App.Timesteps
	ref := replayHeap(t, j, steps, false)
	got := replayHeap(t, j, steps, true)
	if !slices.Equal(got.maxes, ref.maxes) {
		t.Fatalf("per-step heap max: memo %v, replay %v", got.maxes, ref.maxes)
	}
	if got.stats != ref.stats {
		t.Fatalf("rank 0 heap stats: memo %+v, replay %+v", got.stats, ref.stats)
	}
	if !reflect.DeepEqual(got.counters, ref.counters) {
		t.Fatalf("counters differ:\n%s", trace.FormatCounters(diffMap(got.counters, ref.counters)))
	}
	if !slices.Equal(got.obs, ref.obs) {
		t.Fatalf("observation sequences differ: memo %d events, replay %d", len(got.obs), len(ref.obs))
	}
	if got.mcdram != ref.mcdram || got.demand != ref.demand {
		t.Fatalf("final placement: memo (%d B MCDRAM, %d demand ranks), replay (%d, %d)",
			got.mcdram, got.demand, ref.mcdram, ref.demand)
	}

	ctrs, reg := trace.NewCounters(), metrics.NewRegistry()
	j.Trace = true
	j.Sink = trace.NewSinkObs(ctrs, nil, reg)
	res := run(t, j)
	for i, s := range res.Steps {
		if s.Heap != ref.maxes[i] {
			t.Fatalf("step %d heap time %v, replay %v", i, s.Heap, ref.maxes[i])
		}
	}
	if res.HeapStats != ref.stats || res.MCDRAMBytes != ref.mcdram || res.DemandRanks != ref.demand {
		t.Fatalf("run reports stats %+v, MCDRAM %d, demand %d; replay %+v, %d, %d",
			res.HeapStats, res.MCDRAMBytes, res.DemandRanks, ref.stats, ref.mcdram, ref.demand)
	}
	runCtrs := ctrs.Map()
	want := map[string]int64{trace.KeySyscallBrk.String(): int64(len(j.App.HeapOpsPerStep(j.Nodes)) * j.App.RanksPerNode * steps)}
	for name, v := range ref.counters {
		want[name] += v
	}
	for name, v := range runCtrs {
		if _, ok := want[name]; !ok && (strings.HasPrefix(name, "heap.") || strings.HasPrefix(name, "mem.")) {
			t.Errorf("run counts %s = %d, replay never did", name, v)
		}
	}
	for name, v := range want {
		if runCtrs[name] != v {
			t.Errorf("run counter %s = %d, replay %d", name, runCtrs[name], v)
		}
	}
	refReg := metrics.NewRegistry()
	for _, e := range ref.obs {
		if e.rank < 0 {
			refReg.Observe(e.name, e.v)
		} else {
			refReg.ObserveRank(e.name, e.rank, e.v)
		}
	}
	if !reflect.DeepEqual(reg.Ranked("heap.cost_ns"), refReg.Ranked("heap.cost_ns")) {
		t.Error("run's heap.cost_ns distribution differs from the replay's")
	}
	if !reflect.DeepEqual(reg.Histogram("mem.fault_pages"), refReg.Histogram("mem.fault_pages")) {
		t.Error("run's mem.fault_pages distribution differs from the replay's")
	}
	return got
}

// diffMap returns a's entries that b lacks or holds differently, and b's
// that a lacks (as 0 in a).
func diffMap(a, b map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range a {
		if b[k] != v {
			d[k] = v - b[k]
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			d[k] = -v
		}
	}
	return d
}

// TestHeapMemoMatchesReplay checks the memo against the reference on the
// Lulesh trace for every kernel at several node counts, and on
// configurations that change what a replayed step does: Linux without THP
// (4 KiB faults only), mOS with its heap management off (the Linux-like
// engine, whose trims free pages), DDR4-only placement and quadrant mode.
func TestHeapMemoMatchesReplay(t *testing.T) {
	noTHP := linuxos.DefaultConfig()
	noTHP.THP = false
	mosOff := mos.DefaultConfig()
	mosOff.HeapManagement = false
	cases := map[string]Job{
		"linux/nothp":   {Kernel: kernel.TypeLinux, Nodes: 8, Linux: &noTHP},
		"mos/heap-off":  {Kernel: kernel.TypeMOS, Nodes: 1, MOS: &mosOff},
		"mckernel/ddr":  {Kernel: kernel.TypeMcKernel, Nodes: 1, ForceDDROnly: true},
		"linux/quad":    {Kernel: kernel.TypeLinux, Nodes: 16, Quadrant: true},
		"mos/quad/2048": {Kernel: kernel.TypeMOS, Nodes: 2048, Quadrant: true},
	}
	for _, bk := range benchKernels {
		for _, nodes := range []int{1, 64, 1728} {
			cases[bk.name+"/"+strconv.Itoa(nodes)] = Job{Kernel: bk.kt, Nodes: nodes}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		j := cases[name]
		j.App, j.Seed = apps.Lulesh(), 3
		t.Run(name, func(t *testing.T) {
			got := checkHeapMemo(t, j)
			if got.replayed >= j.App.Timesteps {
				t.Errorf("replayed all %d steps: the node never reached its fixed point", got.replayed)
			}
		})
	}
}

// fuzzJob builds the job FuzzHeapMemoMatchesReplay checks: the Lulesh
// model with its brk trace, heap limit and step count replaced. Each
// 3-byte record of ops is one call: a query, a grow or a shrink, sized in
// odd multiples of 4 KiB so growth segments start unaligned as well as on
// 2 MiB boundaries.
func fuzzJob(kind, nodes uint8, ops []byte, limitMiB uint16, steps uint8) Job {
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	trace := make([]int64, 0, 64) // empty, not nil: a nil trace has no heap phase
	for i := 0; i+3 <= len(ops) && len(trace) < 64; i += 3 {
		size := int64(binary.LittleEndian.Uint16(ops[i+1:])) * int64(hw.Page4K) * 3
		switch ops[i] % 4 {
		case 0:
			trace = append(trace, 0)
		case 1, 2:
			trace = append(trace, size+int64(hw.Page4K))
		default:
			trace = append(trace, -size)
		}
	}
	app := *apps.Lulesh()
	app.HeapOpsPerStep = func(int) []int64 { return trace }
	app.HeapLimit = (int64(limitMiB)%512 + 1) * hw.MiB
	app.Timesteps = 1 + int(steps)%12
	return Job{App: &app, Kernel: kts[int(kind)%len(kts)], Nodes: 1 + int(nodes)%64, Seed: 1}
}

// FuzzHeapMemoMatchesReplay checks the memo against the reference over
// random brk traces: traces that trim back to a fixed point, traces with
// net growth that never reach one until the heap limit stops them, and
// limits small enough that most growth fails. The seed corpus in
// testdata/fuzz holds one of each shape.
func FuzzHeapMemoMatchesReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, nodes uint8, ops []byte, limitMiB uint16, steps uint8) {
		checkHeapMemo(t, fuzzJob(kind, nodes, ops, limitMiB, steps))
	})
}

// TestHeapMemoFixedPointShapes pins the trace shapes the fuzz corpus
// seeds on every kernel, by how many steps the memo replays out of 12 (a
// counting run replays one capture step after the fixed point): a trace
// that trims back to an empty heap reaches its fixed point within two
// steps, one with net growth never reaches it, and the same growth
// against a 1 MiB heap limit (eight 124 KiB grows fit) reaches it once
// every grow fails.
func TestHeapMemoFixedPointShapes(t *testing.T) {
	for _, c := range []struct {
		name     string
		ops      []byte
		limitMiB uint16
		ok       func(replayed int) bool
	}{
		{"trims-back", []byte{1, 10, 0, 0, 0, 0, 3, 11, 0}, 63, func(n int) bool { return n <= 3 }},
		{"net-growth", []byte{1, 10, 0, 0, 0, 0}, 63, func(n int) bool { return n == 12 }},
		{"heap-limit", []byte{1, 10, 0, 0, 0, 0}, 0, func(n int) bool { return n < 12 }},
	} {
		for kind, bk := range benchKernels {
			t.Run(c.name+"/"+bk.name, func(t *testing.T) {
				got := checkHeapMemo(t, fuzzJob(uint8(kind), 0, c.ops, c.limitMiB, 11))
				if !c.ok(got.replayed) {
					t.Errorf("replayed %d of 12 steps", got.replayed)
				}
			})
		}
	}
}

// TestHeapMemoSnapshotLayout: the node snapshot is the physical
// allocator's state followed by every rank heap's, in rank order, and a
// snapshot of an unchanged node equals the one before it.
func TestHeapMemoSnapshotLayout(t *testing.T) {
	for _, bk := range benchKernels {
		j := Job{App: apps.Lulesh(), Kernel: bk.kt, Nodes: 1, Seed: 1}.normalized()
		k, err := bootKernel(j)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := setupNode(k, j)
		if err != nil {
			t.Fatal(err)
		}
		r := newHeapReplay(ns, j.App.HeapOpsPerStep(j.Nodes), 0, k.Costs(), false, false)
		r.snapshot()
		want := ns.phys.AppendState(nil)
		for _, h := range ns.heaps {
			want = h.AppendState(want)
		}
		if !slices.Equal(r.snap, want) {
			t.Errorf("%s: snapshot of %d words, want phys then heaps (%d words)", bk.name, len(r.snap), len(want))
		}
		if !r.snapshot() {
			t.Errorf("%s: an unchanged node's snapshot differs from the one before", bk.name)
		}
	}
}

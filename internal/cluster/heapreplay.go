package cluster

import (
	"slices"

	"mklite/internal/kernel"
	"mklite/internal/mem"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// heapReplay is the step loop's heap phase: every rank replays the
// application's per-step brk trace on its own heap engine, and the slowest
// rank gates the node.
//
// The replay is memoised at the node's memory fixed point. A rank's replay
// reads only its heap engine's state, its heap area's backing and the
// node's physical allocator, all of which the node's memory snapshot
// covers (Phys.AppendState, then every Heap.AppendState in rank order),
// and it draws no random numbers. So when a step starts in the same
// snapshot as the step before it, it replays exactly as that step did and
// ends in the same snapshot again; by induction so does every later step.
// From there on the per-rank costs of
// the last replayed step are exact for the rest of the run, and no rank
// (rank 0 included) replays again. The LWK heaps reach the fixed point
// once their over-reserving growth has settled; the Linux heap's trace
// trims back to where it started, so its node returns to the same
// snapshot after every step.
//
// Counters and observations stay exact. When the run counts or observes,
// the first step after the fixed point is replayed once more as a capture
// step: its counters go to a private set, merged into the run's at once
// and again once per skipped step by finish, and each rank's
// observations are recorded so skipped steps emit them again, in order,
// before that rank's heap.cost_ns sample. The capture step starts in a
// state its predecessor also started in, so every size it reaches was
// already reached: it raises no peak and emits no max-style counter a
// scaled merge would sum.
type heapReplay struct {
	ns      *nodeState
	ops     []int64
	brkTime sim.Duration
	costs   kernel.Costs
	sink    *trace.Sink

	// max is the slowest rank's cost in the last replayed step, and
	// rankCost each rank's (kept when observing, for heap.cost_ns).
	max      sim.Duration
	rankCost []sim.Duration

	// snap is the latest step-start snapshot, overwritten in place by
	// the next one while the two are compared; part holds one
	// component's state at a time.
	snap, part []int64
	// steady reports that the fixed point was reached: every later step
	// costs what the last replayed step cost.
	steady bool
	// captured reports that a counting or observing run has replayed
	// its capture step; counts and rec hold that step's emissions.
	captured bool
	counts   *trace.Counters
	rec      *obsRecorder
	// owed counts the steps skipped since the fixed point.
	owed int64
	// before is rank 0's accounting at the start of the last replayed
	// step, from which finish extends it over the skipped steps.
	before mem.HeapStats
	// replayed counts the steps every rank replayed.
	replayed int
}

func newHeapReplay(ns *nodeState, ops []int64, brkTime sim.Duration, costs kernel.Costs, sink *trace.Sink) *heapReplay {
	r := &heapReplay{ns: ns, ops: ops, brkTime: brkTime, costs: costs, sink: sink}
	if sink.Observing() {
		r.rankCost = make([]sim.Duration, len(ns.heaps))
	}
	return r
}

// step runs one timestep's heap phase and returns the slowest rank's cost.
func (r *heapReplay) step() sim.Duration {
	if !r.steady {
		r.steady = r.snapshot() && r.replayed > 0
	}
	if r.steady && (r.captured || !(r.sink.Counting() || r.sink.Observing())) {
		r.skip()
	} else {
		r.replay(r.steady)
	}
	return r.max
}

// snapshot overwrites snap with the node's current memory state and
// reports whether it equals the snapshot it replaced. The comparison is
// exact, word by word; every variable-length component is prefixed with
// its length, so equal snapshots mean equal states. A measuring pass sizes
// snap first, so it is allocated once per length the state takes.
func (r *heapReplay) snapshot() bool {
	parts := len(r.ns.heaps) + 1
	n := 0
	for i := range parts {
		r.part = r.appendPart(r.part[:0], i)
		n += len(r.part)
	}
	same := n == len(r.snap)
	if n > cap(r.snap) {
		r.snap = make([]int64, n)
	}
	r.snap = r.snap[:n]
	off := 0
	for i := range parts {
		r.part = r.appendPart(r.part[:0], i)
		end := off + len(r.part)
		same = same && slices.Equal(r.snap[off:end], r.part)
		copy(r.snap[off:end], r.part)
		off = end
	}
	return same
}

// appendPart appends component i of the node's memory state to dst: the
// physical allocator for i = 0, rank i-1's heap after it.
func (r *heapReplay) appendPart(dst []int64, i int) []int64 {
	if i == 0 {
		return r.ns.phys.AppendState(dst)
	}
	return r.ns.heaps[i-1].AppendState(dst)
}

// skip charges one more step at the fixed point, emitting the capture
// step's observations again.
func (r *heapReplay) skip() {
	r.owed++
	if !r.sink.Observing() {
		return
	}
	start := 0
	for ri, c := range r.rankCost {
		end := r.rec.ends[ri]
		for _, o := range r.rec.samples[start:end] {
			r.sink.Observe(o.name, o.v)
		}
		start = end
		r.sink.ObserveRank("heap.cost_ns", ri, int64(c))
	}
}

// replay runs the brk trace on every rank. A capture replay routes the
// heaps' emissions through a private counter set and an observation
// recorder as well as the run's observer.
func (r *heapReplay) replay(capture bool) {
	if len(r.ns.heaps) > 0 {
		r.before = r.ns.heaps[0].Stats()
	}
	var capSink *trace.Sink
	if capture {
		var obs trace.Observer
		if r.sink.Observing() {
			r.rec = &obsRecorder{Observer: r.sink.Observer(), ends: make([]int, len(r.ns.heaps))}
			obs = r.rec
		}
		if r.sink.Counting() {
			r.counts = trace.NewCounters()
		}
		capSink = trace.NewSinkObs(r.counts, r.sink.Events(), obs)
	}
	r.max = 0
	for ri, h := range r.ns.heaps {
		if capture {
			r.ns.ranks[ri].as.SetSink(capSink)
		}
		var cost sim.Duration
		var work mem.Work
		for _, delta := range r.ops {
			cost += r.brkTime
			if _, w, err := h.Sbrk(delta); err == nil {
				work.Accumulate(w)
			}
			if delta > 0 {
				// The application uses what it just allocated
				// before the next call — first touch happens
				// here.
				work.Accumulate(h.TouchUpTo(h.Size()))
			}
		}
		cost += r.costs.WorkTime(work)
		if capture {
			r.ns.ranks[ri].as.SetSink(r.sink)
			if r.rec != nil {
				r.rec.ends[ri] = len(r.rec.samples)
			}
		}
		r.max = max(r.max, cost)
		if r.rankCost != nil {
			r.rankCost[ri] = cost
			r.sink.ObserveRank("heap.cost_ns", ri, int64(cost))
		}
	}
	if capture {
		r.sink.Counters().Merge(r.counts)
		r.captured = true
	}
	r.replayed++
}

// finish pays the counters the skipped steps owe and returns rank 0's
// accounting for the whole run: its replayed steps plus one steady step's
// change per skipped step.
func (r *heapReplay) finish() mem.HeapStats {
	if r.counts != nil {
		r.sink.Counters().MergeScaled(r.counts, r.owed)
	}
	if len(r.ns.heaps) == 0 {
		return mem.HeapStats{}
	}
	return r.ns.heaps[0].Stats().Repeat(r.before, r.owed)
}

// obsRecorder forwards observations to the run's observer and keeps the
// Observe samples, in order, with each rank's end offset. The heap engines
// emit only Observe samples (mem.fault_pages).
type obsRecorder struct {
	trace.Observer
	samples []obsSample
	ends    []int
}

type obsSample struct {
	name string
	v    int64
}

func (o *obsRecorder) Observe(name string, v int64) {
	o.Observer.Observe(name, v)
	o.samples = append(o.samples, obsSample{name: name, v: v})
}

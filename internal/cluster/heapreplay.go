package cluster

import (
	"context"
	"fmt"
	"slices"

	"mklite/internal/kernel"
	"mklite/internal/mem"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// heapReplay is the step loop's heap phase as Prepare runs it: every rank
// replays the application's per-step brk trace on its own heap engine, and
// the slowest rank gates the node. The phase draws no random numbers, so
// Prepare replays it once per image and records it (heapRecord); runs play
// the record.
//
// The replay stops at the node's memory fixed point. A rank's replay reads
// only its heap engine's state, its heap area's backing and the node's
// physical allocator, all of which the node's memory snapshot covers
// (Phys.AppendState, then every Heap.AppendState in rank order). So when a
// step starts in the same snapshot as the step before it, it replays
// exactly as that step did and ends in the same snapshot again; by
// induction so does every later step. From there on the per-rank costs of
// the last replayed step are exact for the rest of the run, and no rank
// (rank 0 included) replays again. The LWK heaps reach the fixed point
// once their over-reserving growth has settled; the Linux heap's trace
// trims back to where it started, so its node returns to the same
// snapshot after every step.
//
// Counters and observations stay exact. When the image records them, the
// first step at the fixed point is replayed once more as a capture step,
// and every later step plays its emissions again: its observations at the
// step, in order, and its counters scaled by the steps skipped. The
// capture step starts in a state its predecessor also started in, so every
// size it reaches was already reached: it raises no peak a later step
// could raise further.
type heapReplay struct {
	ns      *nodeState
	ops     []int64
	brkTime sim.Duration
	costs   kernel.Costs
	// counting and observing select the emissions each step records.
	counting, observing bool

	rec heapRecord

	// snap is the latest step-start snapshot, overwritten in place by
	// the next one while the two are compared; part holds one
	// component's state at a time.
	snap, part []int64
}

func newHeapReplay(ns *nodeState, ops []int64, brkTime sim.Duration, costs kernel.Costs, counting, observing bool) *heapReplay {
	return &heapReplay{ns: ns, ops: ops, brkTime: brkTime, costs: costs,
		counting: counting, observing: observing,
		rec: heapRecord{brkCalls: int64(len(ops) * len(ns.heaps))}}
}

// run replays up to steps steps of the heap phase, stopping at the node's
// fixed point (after the capture step, when recording).
func (r *heapReplay) run(ctx context.Context, steps int) error {
	for step := range steps {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cluster: cancelled at heap step %d: %w", step, err)
		}
		if r.snapshot() && step > 0 {
			if r.counting || r.observing {
				r.replay()
			}
			return nil
		}
		r.replay()
	}
	return nil
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

// replay runs the brk trace on every rank and records the step: its
// slowest rank's cost and, when recording, everything the heaps emit and
// each rank's heap.cost_ns sample, in order.
func (r *heapReplay) replay() {
	e := newEmissions(r.counting, r.observing)
	sink := e.sink()
	var slowest sim.Duration
	for ri, h := range r.ns.heaps {
		r.ns.ranks[ri].as.SetSink(sink)
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
		slowest = max(slowest, cost)
		sink.ObserveRank("heap.cost_ns", ri, int64(cost))
	}
	r.rec.steps = append(r.rec.steps, heapStep{cost: slowest, after: nodeAcctOf(r.ns)})
	if e != nil {
		r.rec.emits = append(r.rec.emits, e)
	}
}

// heapRecord is a heap phase as Prepare replayed it, played by every run.
// It is read-only once recorded.
//
// A record made for T steps serves a run of any T′ ≤ T steps exactly. The
// replay of T′ steps is the first min(T′, len(steps)) steps of the replay
// of T: both stop at the same fixed point, unless T′ ends first. So every
// step of a T′ run costs and emits what a record made for T′ holds, and
// the counters it owes past the record (finish) are the same. Only the
// accounting after the run depends on where it ends, and each replayed
// step keeps its own.
type heapRecord struct {
	// steps holds each replayed step. A step past the last is at the
	// fixed point and repeats the last.
	steps []heapStep
	// emits holds each replayed step's emissions when the image records
	// them.
	emits []*emissions
	// brkCalls is the brk calls the node makes per step.
	brkCalls int64
	// start is the node's accounting before the first step.
	start nodeAcct
}

// heapStep is one replayed step: its slowest rank's cost and the node's
// accounting after it.
type heapStep struct {
	cost  sim.Duration
	after nodeAcct
}

// nodeAcct is what a run reports of the node's memory after its last
// step: rank 0's heap accounting and the node's MCDRAM residency.
type nodeAcct struct {
	heap   mem.HeapStats
	mcdram int64
}

// nodeAcctOf returns the node's accounting as it stands.
func nodeAcctOf(ns *nodeState) nodeAcct {
	a := nodeAcct{mcdram: mcdramResidency(ns)}
	if len(ns.heaps) > 0 {
		a.heap = ns.heaps[0].Stats()
	}
	return a
}

// acct returns the node's accounting after a run of steps steps: a
// replayed step's, or past the fixed point the last replayed step's with
// rank 0's heap extended by the fixed-point step's change per skipped
// step. The residency does not move at the fixed point.
func (h *heapRecord) acct(steps int) nodeAcct {
	after := func(i int) nodeAcct {
		if i == 0 {
			return h.start
		}
		return h.steps[i-1].after
	}
	n := len(h.steps)
	if steps <= n || n == 0 {
		return after(min(steps, n))
	}
	a := after(n)
	a.heap = a.heap.Repeat(after(n-1).heap, int64(steps-n))
	return a
}

// cost returns step's heap cost: a replayed step's, or at the fixed point
// the last replayed step's. An empty record costs nothing.
func (h *heapRecord) cost(step int) sim.Duration {
	if len(h.steps) == 0 {
		return 0
	}
	return h.steps[min(step, len(h.steps)-1)].cost
}

// emit emits what step emits into sink: a replayed step's recording, or at
// the fixed point the capture step's observations (finish pays its
// counters).
func (h *heapRecord) emit(step int, sink *trace.Sink) {
	if step < len(h.steps) {
		if step < len(h.emits) {
			h.emits[step].play(sink)
		}
		return
	}
	if n := len(h.emits); n > 0 {
		h.emits[n-1].observe(sink)
	}
}

// finish pays the counters a run of steps steps owes for the steps it
// played past the record.
func (h *heapRecord) finish(steps int, sink *trace.Sink) {
	if owed := steps - len(h.steps); owed > 0 && len(h.emits) > 0 {
		h.emits[len(h.emits)-1].count(sink, int64(owed))
	}
}

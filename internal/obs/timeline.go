package obs

import (
	"fmt"

	"mklite/internal/trace"
)

// Track layout of the facility timeline, in Chrome trace-event (pid, tid)
// coordinates. Node tracks come first so Perfetto sorts them on top:
//
//   - pid n in [0, nodes): node n's occupancy track. Each tid in [0, share)
//     is one co-tenancy slot; a job resident on the node holds one slot for
//     its whole residency, so every lane carries at most one open span and
//     B/E pairs balance by construction.
//   - pid nodes: the facility lane, carrying the "queue-depth" and
//     "occupied-nodes" counter series ('C' events, rendered by Perfetto as
//     stepped timelines, extractable with trace.Events.CounterSeries).
//   - pid nodes+1+j: job j's own track when Options.JobEvents is set — the
//     job's cluster/kernel events re-homed via trace.Rescoped, tids
//     preserved as the job's internal lanes.
//
// The layout is a pure function of (nodes, share, job IDs), so two runs of
// the same config produce byte-identical timeline JSON.

// Counter series names on the facility lane.
const (
	SeriesQueueDepth    = "queue-depth"
	SeriesOccupiedNodes = "occupied-nodes"
)

// DefaultTimelineCap bounds the timeline ring when the caller does not
// choose a size: room for a 1,000-job facility run's occupancy spans and
// counter samples several times over.
const DefaultTimelineCap = 1 << 17

// Timeline is the facility-level event collector: occupancy Gantt spans per
// node, counter series on the facility lane, and optional per-job tracks.
// Like trace.Events it is per-run, single-goroutine state; the nil *Timeline
// is the off switch (every method is nil-receiver safe and records nothing).
//
// Recording is deliberately two-phase. During the run the timeline appends
// only compact op records (a few dozen bytes per scheduler event) — the
// full trace.Event stream, with its per-event strings and counter args
// maps, is materialized by Events/JSON after the run. Keeping the
// recording-side footprint small keeps the simulator's caches clean:
// emitting the expanded events inline measurably slowed the surrounding
// simulation even though the timeline's own functions never showed in a
// CPU profile (BENCH_PR9's obs_on_overhead_percent guards the budget).
type Timeline struct {
	capacity int
	nodes    int
	share    int

	// slots[n][s] holds the open span name on node n, slot s ("" = free).
	slots [][]string
	// resident maps a resident job ID to its jobs index. Keyed lookups
	// only — never iterated — so map order cannot leak.
	resident map[int]int32

	ops  []tlOp
	jobs []jobSpan
	// merged holds the job-local event batches (Options.JobEvents), one
	// per ReserveJobEvents slot, rescoped lazily at materialization.
	merged  []jobEvents
	dropped int64
}

// Op kinds of the compact recording log.
const (
	opStart  = iota // open a job's occupancy spans (idx → jobs)
	opEnd           // close them (idx → jobs)
	opSample        // facility counter sample (a, b)
	opMerge         // merge a job-local ring (idx → merged)
)

// tlOp is one recorded scheduler event, replayed at materialization.
type tlOp struct {
	kind int8
	idx  int32
	ts   int64
	a, b int64
}

// jobSpan remembers one launched job's span identity: the label, the Begin
// args, and the (node, slot) pairs its residency occupies.
type jobSpan struct {
	name  string
	args  map[string]int64
	nodes []int
	slot  []int
}

// jobEvents is one job-events merge slot, kept in the job's run-local frame.
type jobEvents struct {
	job     int
	startTS int64
	evs     []trace.Event
}

// NewTimeline returns a timeline for a facility of the given size. share is
// the node oversubscription factor (slots per node track; values < 1 are
// treated as 1); cap bounds the event ring (0 selects DefaultTimelineCap).
func NewTimeline(nodes, share, cap int) *Timeline {
	if share < 1 {
		share = 1
	}
	if cap <= 0 {
		cap = DefaultTimelineCap
	}
	slots := make([][]string, nodes)
	for i := range slots {
		slots[i] = make([]string, share)
	}
	return &Timeline{
		capacity: cap,
		nodes:    nodes,
		share:    share,
		slots:    slots,
		resident: map[int]int32{},
	}
}

// Nodes returns the facility size the timeline was built for.
func (t *Timeline) Nodes() int {
	if t == nil {
		return 0
	}
	return t.nodes
}

// Share returns the co-tenancy slot count per node track.
func (t *Timeline) Share() int {
	if t == nil {
		return 0
	}
	return t.share
}

// FacilityPid returns the pid of the facility counter lane.
func (t *Timeline) FacilityPid() int32 {
	if t == nil {
		return 0
	}
	return int32(t.nodes)
}

// JobPid returns the pid of job's own track (Options.JobEvents).
func (t *Timeline) JobPid(job int) int32 {
	if t == nil {
		return 0
	}
	return int32(t.nodes + 1 + job)
}

// JobStart opens the job's occupancy span on every allocated node at virtual
// facility time ts. Each node assigns the job its lowest free co-tenancy
// slot — deterministic because launches and completions reach the timeline
// in the scheduler's (job-ID-ordered) commit order. name labels the span
// ("job 17 minife/mOS"); args ride on the Begin event of every node.
func (t *Timeline) JobStart(ts int64, job int, name string, nodes []int, args map[string]int64) {
	if t == nil {
		return
	}
	if _, ok := t.resident[job]; ok {
		panic(fmt.Sprintf("obs: job %d started twice on the timeline", job))
	}
	r := jobSpan{name: name, args: args, nodes: append([]int(nil), nodes...)}
	for _, n := range nodes {
		slot := -1
		for s, open := range t.slots[n] {
			if open == "" {
				slot = s
				break
			}
		}
		if slot < 0 {
			panic(fmt.Sprintf("obs: node %d has no free co-tenancy slot for job %d (share %d)", n, job, t.share))
		}
		t.slots[n][slot] = name
		r.slot = append(r.slot, slot)
	}
	idx := int32(len(t.jobs))
	t.jobs = append(t.jobs, r)
	t.resident[job] = idx
	t.ops = append(t.ops, tlOp{kind: opStart, idx: idx, ts: ts})
}

// JobEnd closes the job's occupancy spans at virtual facility time ts and
// frees its slots.
func (t *Timeline) JobEnd(ts int64, job int) {
	if t == nil {
		return
	}
	idx, ok := t.resident[job]
	if !ok {
		panic(fmt.Sprintf("obs: job %d ended without starting on the timeline", job))
	}
	r := &t.jobs[idx]
	for i, n := range r.nodes {
		t.slots[n][r.slot[i]] = ""
	}
	delete(t.resident, job)
	t.ops = append(t.ops, tlOp{kind: opEnd, idx: idx, ts: ts})
}

// Sample records the facility lane's counter series at virtual time ts:
// the queue depth and the number of occupied nodes.
func (t *Timeline) Sample(ts int64, queueDepth, occupiedNodes int) {
	if t == nil {
		return
	}
	t.ops = append(t.ops, tlOp{kind: opSample, ts: ts, a: int64(queueDepth), b: int64(occupiedNodes)})
}

// ReserveJobEvents records, at the job's launch, where its job-local event
// ring merges into the recording log, and returns the slot FillJobEvents
// later completes once the job has run. Every merged event is re-homed to
// JobPid(job) and shifted from the job's run-local clock onto the facility
// clock by startTS (the job's launch time). Reserving in launch order and
// filling whenever the ring arrives keeps the materialized document
// identical to merging every ring at launch. Returns -1 on the nil
// timeline.
func (t *Timeline) ReserveJobEvents(job int, startTS int64) int {
	if t == nil {
		return -1
	}
	idx := int32(len(t.merged))
	t.merged = append(t.merged, jobEvents{job: job, startTS: startTS})
	t.ops = append(t.ops, tlOp{kind: opMerge, idx: idx})
	return int(idx)
}

// FillJobEvents supplies the events of a reserved merge slot. dropped is the
// job ring's own eviction count, folded into the timeline's so the exported
// document reports the loss. A slot never filled materializes as empty.
func (t *Timeline) FillJobEvents(slot int, evs []trace.Event, dropped int64) {
	if t == nil || slot < 0 {
		return
	}
	if dropped > 0 {
		t.dropped += dropped
	}
	t.merged[slot].evs = evs
}

// materialize replays the op log into a trace ring: the expanded event
// stream in recording order, with the same capacity-eviction behaviour as
// if every event had been emitted inline.
func (t *Timeline) materialize() *trace.Events {
	e := trace.NewEvents(t.capacity)
	for _, op := range t.ops {
		switch op.kind {
		case opStart:
			r := &t.jobs[op.idx]
			for i, n := range r.nodes {
				e.Emit(trace.Event{
					Name: r.name, Cat: "occupancy", Ph: trace.PhBegin,
					TS: op.ts, Pid: int32(n), Tid: int32(r.slot[i]), Args: r.args,
				})
			}
		case opEnd:
			r := &t.jobs[op.idx]
			for i, n := range r.nodes {
				e.Emit(trace.Event{
					Name: r.name, Cat: "occupancy", Ph: trace.PhEnd,
					TS: op.ts, Pid: int32(n), Tid: int32(r.slot[i]),
				})
			}
		case opSample:
			pid := t.FacilityPid()
			e.Emit(trace.Event{Name: SeriesQueueDepth, Cat: "counter", Ph: trace.PhCounter,
				TS: op.ts, Pid: pid, Args: map[string]int64{"value": op.a}})
			e.Emit(trace.Event{Name: SeriesOccupiedNodes, Cat: "counter", Ph: trace.PhCounter,
				TS: op.ts, Pid: pid, Args: map[string]int64{"value": op.b}})
		case opMerge:
			m := t.merged[op.idx]
			for _, ev := range trace.Rescoped(m.evs, t.JobPid(m.job), m.startTS) {
				e.Emit(ev)
			}
		}
	}
	e.NoteDropped(t.dropped)
	return e
}

// Events materializes the timeline as a trace ring, e.g. for CounterSeries
// extraction (nil when the timeline is off). Each call replays the op log
// afresh; read the artifact after the run, not per scheduler event.
func (t *Timeline) Events() *trace.Events {
	if t == nil {
		return nil
	}
	return t.materialize()
}

// Open returns the number of jobs still resident on the timeline — zero
// after a drained facility run, which is what makes every node track's
// B/E spans balance.
func (t *Timeline) Open() int {
	if t == nil {
		return 0
	}
	return len(t.resident)
}

// JSON renders the timeline as Chrome trace-event JSON ("mklite-trace/v1"),
// loadable in Perfetto and checkable with trace.Validate.
func (t *Timeline) JSON() []byte {
	if t == nil {
		return nil
	}
	return t.materialize().JSON()
}

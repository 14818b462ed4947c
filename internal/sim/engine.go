package sim

import (
	"fmt"
	"sort"

	"mklite/internal/trace"
)

// Event is a unit of scheduled work: a function that executes at a point in
// virtual time. Events with the same timestamp execute in scheduling order
// (FIFO), which keeps runs deterministic.
type Event struct {
	at   Time
	seq  uint64 // tiebreaker: insertion order
	fn   func()
	dead bool // cancelled events stay in the queue but are skipped
}

// Cancel prevents the event from running. Cancelling an already-executed or
// already-cancelled event is a no-op.
func (ev *Event) Cancel() { ev.dead = true }

// Cancelled reports whether Cancel has been called on the event.
func (ev *Event) Cancelled() bool { return ev.dead }

// When returns the virtual time the event is scheduled for.
func (ev *Event) When() Time { return ev.at }

// Engine is a sequential discrete-event simulator. It is not safe for
// concurrent use; cooperative processes spawned with Spawn hand control back
// and forth with the engine so that exactly one goroutine runs at a time.
type Engine struct {
	now    Time
	seq    uint64
	events calQueue
	rng    *RNG

	executed uint64 // number of events run, for diagnostics
	running  bool
	stopped  bool

	// procs maps each live process to its spawn sequence number, so
	// teardown paths (Drain) can order processes deterministically.
	procs   map[*Proc]uint64
	procSeq uint64

	// sink is the run's trace destination; subsystems built on the engine
	// (ihk, nodesim) key their events to the engine clock. Nil when
	// tracing is off. The sink is passive: it never draws from the
	// engine's RNG and never schedules events.
	sink *trace.Sink
}

// NewEngine returns an engine with its clock at zero, drawing randomness
// from the given seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{
		rng:   NewRNG(seed),
		procs: make(map[*Proc]uint64),
	}
	e.events.init()
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's root random stream. Subsystems should Split it
// rather than sharing it so that adding a consumer does not perturb others.
func (e *Engine) RNG() *RNG { return e.rng }

// SetSink attaches a per-run trace sink (nil turns tracing off).
func (e *Engine) SetSink(s *trace.Sink) { e.sink = s }

// Sink returns the attached trace sink; nil means tracing is off.
func (e *Engine) Sink() *trace.Sink { return e.sink }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently scheduled (including
// cancelled events that have not yet been skipped).
func (e *Engine) Pending() int { return e.events.size }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: virtual time is monotone by construction, so a past timestamp is
// always a model bug.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", t, e.now))
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.events.push(ev)
	return ev
}

// After schedules fn to run d from now. Negative delays are clamped to zero.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Stop makes Run return after the current event completes. Pending events
// remain queued; a subsequent Run resumes them.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single next event, advancing the clock to its timestamp.
// It returns false when the queue is empty.
func (e *Engine) Step() bool {
	for {
		ev := e.events.pop()
		if ev == nil {
			return false
		}
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.executed++
		ev.fn()
		return true
	}
}

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time {
	return e.RunUntil(Never)
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline (if any events remain beyond it, they stay queued). It returns
// the final virtual time.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: Engine.Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for !e.stopped {
		ev := e.events.peek()
		if ev == nil {
			break
		}
		if ev.at > deadline {
			e.now = deadline
			break
		}
		e.Step()
	}
	if deadline != Never && e.now < deadline && e.events.size == 0 {
		e.now = deadline
	}
	return e.now
}

// Drain cancels every pending event and kills every live process, then runs
// the resulting kill deliveries so each killed process unwinds (running its
// deferred cleanup) and its goroutine is gone before Drain returns.
// Processes are killed in spawn order — iterating the procs map directly
// would make the teardown order, and therefore any trace output or side
// effects of the unwinding, vary between runs. A process whose start event
// was cancelled never ran and is simply retired. The engine remains usable
// afterwards; the clock does not move.
func (e *Engine) Drain() {
	// Clearing the queue nils the stored slots: the old truncate-in-place
	// retained every Event (and its fn closure) in the backing array.
	e.events.clear()
	live := make([]*Proc, 0, len(e.procs))
	//mklint:ignore maprange collection order is erased by the spawn-sequence sort below
	for p := range e.procs {
		live = append(live, p)
	}
	sort.Slice(live, func(i, j int) bool { return e.procs[live[i]] < e.procs[live[j]] })
	for _, p := range live {
		if p.resume == nil {
			p.done = true
			delete(e.procs, p)
			continue
		}
		p.Kill()
	}
	// Deliver the kill dispatches now: dropping them (as the old Drain
	// did) left every killed process goroutine blocked forever.
	for e.Step() {
	}
}

// Package trace is the simulator's deterministic observability layer:
// mechanism counters and virtual-time event spans threaded through the whole
// stack (mem, kernel, noise, ihk, cluster, nodesim).
//
// The design contract, in order of importance:
//
//  1. Tracing is passive. A sink never draws from a sim.RNG, never feeds
//     anything back into the model, and never influences control flow.
//     Run digests are byte-identical with tracing off, counters on, or full
//     event tracing on — determinism_test.go enforces this.
//  2. Sinks are per-run state. A *Sink is created next to the run's seed and
//     carried through the run context (cluster.Job.Sink, nodesim.Config.Sink,
//     sim.Engine.SetSink). It is never a package-level variable and never
//     shared across internal/par worker closures — mklint's parshare
//     analyzer rejects both.
//  3. Off is free. The nil *Sink is the off switch: every method is
//     nil-receiver safe and compiles to a branch, so instrumented hot paths
//     cost one pointer test per site when tracing is disabled
//     (BenchmarkSinkDisabled).
//
// All timestamps are virtual nanoseconds (the same int64 unit as
// sim.Time); the package deliberately does not import sim so that sim can
// carry a sink itself.
package trace

// Observer receives distribution-grade observations — latency samples,
// per-rank samples, phase time, gauges — alongside the flat counters. It is
// how internal/metrics hooks into the emission sites without trace importing
// metrics. Implementations follow the same contract as the sink itself:
// per-run, single-goroutine, purely passive.
type Observer interface {
	// Observe records one sample of the named distribution (values are
	// virtual nanoseconds unless the name says otherwise).
	Observe(name string, v int64)
	// ObserveRank records one sample of the named per-rank distribution.
	ObserveRank(name string, rank int, v int64)
	// AddPhase accumulates d virtual nanoseconds into the named phase.
	AddPhase(name string, d int64)
	// SetGauge sets the named gauge to its latest value.
	SetGauge(name string, v int64)
}

// Sink is one run's tracing destination. All backends are optional: a nil
// *Sink (or a sink with no backend) records nothing. Sinks are not safe
// for concurrent use — one sink per run, created inside the par closure that
// owns the run.
type Sink struct {
	counters *Counters
	events   *Events
	obs      Observer
}

// NewSink bundles the given backends. Either may be nil; if both are nil the
// result is nil so that downstream nil-checks stay on the fast path.
func NewSink(c *Counters, e *Events) *Sink {
	return NewSinkObs(c, e, nil)
}

// NewSinkObs is NewSink with a metrics observer attached as a third backend.
// Pass a concrete non-nil observer or the untyped nil — a typed-nil
// interface would defeat the all-nil fast-path collapse.
func NewSinkObs(c *Counters, e *Events, obs Observer) *Sink {
	if c == nil && e == nil && obs == nil {
		return nil
	}
	return &Sink{counters: c, events: e, obs: obs}
}

// Counting reports whether a counters backend is attached. Hot loops may
// hoist this into a local to skip per-iteration work.
func (s *Sink) Counting() bool { return s != nil && s.counters != nil }

// Eventing reports whether an events backend is attached.
func (s *Sink) Eventing() bool { return s != nil && s.events != nil }

// Counters returns the counters backend (nil when absent).
func (s *Sink) Counters() *Counters {
	if s == nil {
		return nil
	}
	return s.counters
}

// Observing reports whether a metrics observer is attached. Hot loops may
// hoist this into a local to skip per-iteration work.
func (s *Sink) Observing() bool { return s != nil && s.obs != nil }

// Count adds delta to the named counter.
func (s *Sink) Count(name string, delta int64) {
	if s == nil || s.counters == nil {
		return
	}
	s.counters.Add(name, delta)
}

// CountKey adds delta to an interned counter — the hot-path form of Count:
// one pointer test plus one array index, no string hashing.
func (s *Sink) CountKey(k Key, delta int64) {
	if s == nil || s.counters == nil {
		return
	}
	s.counters.AddKey(k, delta)
}

// CountMaxKey raises an interned counter to v if v is larger.
func (s *Sink) CountMaxKey(k Key, v int64) {
	if s == nil || s.counters == nil {
		return
	}
	s.counters.MaxKey(k, v)
}

// Observe forwards one distribution sample to the observer.
func (s *Sink) Observe(name string, v int64) {
	if s == nil || s.obs == nil {
		return
	}
	s.obs.Observe(name, v)
}

// ObserveRank forwards one per-rank distribution sample to the observer.
func (s *Sink) ObserveRank(name string, rank int, v int64) {
	if s == nil || s.obs == nil {
		return
	}
	s.obs.ObserveRank(name, rank, v)
}

// Phase accumulates d virtual nanoseconds of the named phase into the
// observer's per-phase breakdown.
func (s *Sink) Phase(name string, d int64) {
	if s == nil || s.obs == nil {
		return
	}
	s.obs.AddPhase(name, d)
}

// Gauge forwards the named gauge's latest value to the observer.
func (s *Sink) Gauge(name string, v int64) {
	if s == nil || s.obs == nil {
		return
	}
	s.obs.SetGauge(name, v)
}

// Begin opens a duration span at virtual time ts (nanoseconds).
func (s *Sink) Begin(ts int64, pid, tid int32, name, cat string) {
	if s == nil || s.events == nil {
		return
	}
	s.events.Emit(Event{Name: name, Cat: cat, Ph: PhBegin, TS: ts, Pid: pid, Tid: tid})
}

// End closes the most recent open span with the same name on (pid, tid).
func (s *Sink) End(ts int64, pid, tid int32, name, cat string) {
	if s == nil || s.events == nil {
		return
	}
	s.events.Emit(Event{Name: name, Cat: cat, Ph: PhEnd, TS: ts, Pid: pid, Tid: tid})
}

// Instant records a point event with optional integer arguments.
func (s *Sink) Instant(ts int64, pid, tid int32, name, cat string, args map[string]int64) {
	if s == nil || s.events == nil {
		return
	}
	s.events.Emit(Event{Name: name, Cat: cat, Ph: PhInstant, TS: ts, Pid: pid, Tid: tid, Args: args})
}

// CounterEvent records a Chrome 'C' sample: the named series has the given
// value at virtual time ts. Perfetto renders these as a stepped timeline.
func (s *Sink) CounterEvent(ts int64, pid int32, name string, value int64) {
	if s == nil || s.events == nil {
		return
	}
	s.events.Emit(Event{Name: name, Cat: "counter", Ph: PhCounter, TS: ts, Pid: pid,
		Args: map[string]int64{"value": value}})
}

// Package sched models the per-kernel CPU scheduling policy as a pluggable
// seam. The paper attributes much of the Linux-vs-LWK performance gap to
// scheduling discipline — tick-driven time sharing versus cooperative
// run-to-completion — and this package turns that discipline from a constant
// of each kernel model into an axis of the experiment matrix.
//
// Two views of a policy exist, matching the two places scheduling enters the
// simulator:
//
//   - Step: the cluster hot loop asks the policy, once per bulk-synchronous
//     application step, what explicit scheduling overhead the step incurs on
//     an application core (quantum-timer expiries, context switches,
//     gang-window padding). The default policies — cfs on Linux, coop on the
//     LWKs — charge nothing here: their cost is already embedded in the
//     calibrated model (the residual/periodic tick lives in the kernel's
//     noise profile, see internal/noise), so a default run is byte-identical
//     to the pre-policy simulator. Non-default policies charge explicit
//     deltas on top.
//
//   - Schedule: the ablation microbenchmarks run an explicit task list
//     through the policy on one core (State.Schedule, or Run with raw
//     parameters), with full tick and context-switch accounting.
//
// Determinism: a Policy is immutable and safe to share. All per-run mutable
// state — the adaptive policy's quantum and its seeded hysteresis draws —
// lives in State, created per run via NewState(sim.StreamSeed(seed,
// StreamState)). State must never be captured across internal/par worker
// closures (enforced by mklint's parshare analyzer).
package sched

import (
	"fmt"
	"strings"

	"mklite/internal/sim"
)

// Kind names a scheduling policy.
type Kind string

// The built-in policies.
const (
	// CFS is tick-driven time sharing — the Linux default. In the hot
	// loop it is the identity policy: the tick's cost is part of the
	// kernel's calibrated noise profile, not an explicit charge.
	CFS Kind = "cfs"
	// RR is fixed-quantum round robin with a naive quantum timer: every
	// expiry takes the timer interrupt and requeues the task (one context
	// switch) even when nothing else is runnable.
	RR Kind = "rr"
	// Coop is the LWKs' cooperative run-to-completion discipline: no
	// timer, no preemption, switches only at task boundaries.
	Coop Kind = "coop"
	// Gang is synchronized-slice gang scheduling: cores run in aligned
	// windows, so every step is padded to a window boundary (internal
	// fragmentation) but noise detours land in the same window on every
	// rank and are absorbed once instead of max-combined across ranks.
	Gang Kind = "gang"
	// Tickless is dyntick: while a single task runs on a core the tick is
	// switched off entirely, so the tick-class noise sources disappear
	// from the kernel's profile (see noise.Profile.WithoutTicks).
	Tickless Kind = "tickless"
	// Adaptive is predictive round robin: the quantum widens and narrows
	// toward the observed application phase length (an EMA of step
	// durations), with a seeded random hysteresis band so adjustments are
	// deterministic per run stream.
	Adaptive Kind = "adaptive"
)

// StreamState is the sim.StreamSeed stream constant for deriving a run's
// scheduler State seed from the job seed.
const StreamState uint64 = 0x5c4ed57a7e

// Default parameters filled in by New when the caller leaves them zero.
const (
	// DefaultQuantum is the preemption quantum of the time-sharing
	// policies (Linux's ~10ms CFS targeted latency scale).
	DefaultQuantum = 10 * sim.Millisecond
	// DefaultGangWindow is the gang policy's co-scheduling window. It is
	// deliberately finer than the RR quantum: the window bounds per-step
	// fragmentation (up to one window of padding per step), and gang
	// trades that padding for aligned noise absorption.
	DefaultGangWindow = 1 * sim.Millisecond
	// DefaultTickPeriod is the scheduler tick period (250Hz).
	DefaultTickPeriod = 4 * sim.Millisecond
	// DefaultTimerCost is the quantum-timer expiry cost used when the
	// kernel's calibrated TickOverhead is zero (the tickless LWKs): a
	// preemptive policy must arm the timer the LWK normally leaves off.
	DefaultTimerCost = 1 * sim.Microsecond
)

// Kinds returns the built-in policy kinds in canonical order.
func Kinds() []Kind {
	return []Kind{CFS, RR, Coop, Gang, Tickless, Adaptive}
}

// Parse validates a policy name.
func Parse(s string) (Kind, error) {
	k := Kind(strings.ToLower(strings.TrimSpace(s)))
	for _, known := range Kinds() {
		if k == known {
			return k, nil
		}
	}
	return "", fmt.Errorf("sched: unknown policy %q (known: %s)", s, KindList())
}

// KindList names every built-in policy, comma-separated, in Kinds order.
func KindList() string {
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, ", ")
}

// Params holds a policy's cost and period constants, taken from the owning
// kernel's calibrated Costs at construction.
type Params struct {
	// Quantum is the preemption quantum (rr, cfs, tickless, adaptive) or
	// the co-scheduling window (gang).
	Quantum sim.Duration
	// ContextSwitch is charged at every task switch and quantum requeue.
	ContextSwitch sim.Duration
	// TickPeriod/TickOverhead model the scheduler tick: every TickPeriod
	// of busy time costs TickOverhead on tick-driven policies.
	TickPeriod   sim.Duration
	TickOverhead sim.Duration
}

// Policy is an immutable scheduling policy bound to one kernel's cost
// constants. Implementations must be safe for concurrent use; all mutable
// per-run state lives in the State returned by NewState.
type Policy interface {
	// Kind names the policy.
	Kind() Kind
	// Preemptive reports whether the policy preempts running tasks.
	Preemptive() bool
	// NewState derives one run's mutable scheduler state from a seed
	// (pass sim.StreamSeed(jobSeed, StreamState)).
	NewState(seed uint64) *State
	// String renders the policy for diagnostics.
	String() string
}

// New builds a built-in policy, filling zero Params with the package
// defaults (per-kind quantum, 250Hz tick period, and — for the policies that
// must arm a quantum timer — a nonzero expiry cost).
func New(kind Kind, p Params) (Policy, error) {
	k, err := Parse(string(kind))
	if err != nil {
		return nil, err
	}
	if p.Quantum <= 0 {
		if k == Gang {
			p.Quantum = DefaultGangWindow
		} else {
			p.Quantum = DefaultQuantum
		}
	}
	if p.TickPeriod <= 0 {
		p.TickPeriod = DefaultTickPeriod
	}
	if (k == RR || k == Adaptive) && p.TickOverhead <= 0 {
		p.TickOverhead = DefaultTimerCost
	}
	return policy{kind: k, p: p}, nil
}

// policy is the built-in Policy implementation: a kind plus its constants.
type policy struct {
	kind Kind
	p    Params
}

func (pl policy) Kind() Kind       { return pl.kind }
func (pl policy) Preemptive() bool { return pl.kind != Coop }
func (pl policy) String() string   { return string(pl.kind) }

// NewState derives the run's scheduler state. The RNG drives only the
// adaptive policy's hysteresis draws, but every kind gets one so state
// construction costs the same on every path.
func (pl policy) NewState(seed uint64) *State {
	return &State{
		kind: pl.kind,
		p:    pl.p,
		q:    pl.p.Quantum,
		rng:  sim.NewRNG(seed),
	}
}

// State is one run's mutable scheduler state: the current (possibly
// adapted) quantum, the phase-length estimate, and the seeded RNG behind the
// adaptive policy's hysteresis. One State belongs to exactly one run — never
// capture it across par worker closures.
type State struct {
	kind Kind
	p    Params
	// q is the live quantum; equals p.Quantum except under adaptive.
	q sim.Duration
	// ema estimates the application phase length (adaptive only).
	ema sim.Duration
	rng *sim.RNG
}

// Kind names the state's policy.
func (s *State) Kind() Kind { return s.kind }

// StepCost is the explicit scheduling overhead one application step incurs
// on an application core.
type StepCost struct {
	// Overhead is the total charge, including GangSlack.
	Overhead sim.Duration
	// GangSlack is the window-alignment padding portion (gang only).
	GangSlack sim.Duration
	// Switches counts context switches (quantum requeues included).
	Switches int64
	// Ticks counts charged quantum-timer expiries. The cfs/tickless tick
	// is not counted here: it lives in the kernel's noise profile.
	Ticks int64
	// Adjusted counts quantum adjustments (adaptive only).
	Adjusted int64
}

// Step charges one bulk-synchronous application step of the given busy time
// (compute + memory + heap + syscall) on a dedicated application core. The
// default disciplines charge nothing — their cost is embedded in the
// calibrated model — so a run under them is bit-identical to the pre-policy
// simulator. See the package comment.
func (s *State) Step(base sim.Duration) StepCost {
	switch s.kind {
	case RR:
		return s.quantumTimer(base)
	case Gang:
		slack := s.gangSlack(base)
		return StepCost{Overhead: slack, GangSlack: slack}
	case Adaptive:
		c := s.quantumTimer(base)
		c.Adjusted = s.adapt(base)
		return c
	default: // cfs, coop, tickless: no explicit per-step charge.
		return StepCost{}
	}
}

// quantumTimer charges the naive quantum timer: one expiry every quantum of
// busy time, each taking the timer interrupt plus a requeue context switch
// even when nothing else is runnable.
func (s *State) quantumTimer(base sim.Duration) StepCost {
	if s.q <= 0 || base < s.q {
		return StepCost{}
	}
	e := int64(base / s.q)
	per := s.p.TickOverhead + s.p.ContextSwitch
	return StepCost{
		Overhead: sim.Duration(e) * per,
		Switches: e,
		Ticks:    e,
	}
}

// gangSlack pads the step to the next co-scheduling window boundary.
func (s *State) gangSlack(base sim.Duration) sim.Duration {
	w := s.q
	if w <= 0 {
		return 0
	}
	return (w - base%w) % w
}

// adapt moves the quantum toward the EMA of observed step lengths by powers
// of two, inside [Quantum/4, Quantum*64]. The hysteresis band is drawn from
// the run's seeded RNG each step (whether or not an adjustment fires), so
// the draw sequence — and therefore the run — is a pure function of the
// seed.
func (s *State) adapt(base sim.Duration) int64 {
	if s.ema == 0 {
		s.ema = base
	} else {
		s.ema = (3*s.ema + base) / 4
	}
	h := 1.5 + s.rng.Float64() // hysteresis in [1.5, 2.5)
	switch {
	case s.ema > s.q.Scale(h) && s.q < s.p.Quantum.Scale(64):
		s.q *= 2
		return 1
	case s.ema.Scale(h) < s.q && s.q > s.p.Quantum/4:
		s.q /= 2
		return 1
	}
	return 0
}

// Run schedules tasks under kind with the given raw parameters — no default
// filling — for callers that model an explicitly-configured scheduler (the
// section II scheduler ablation in internal/experiments).
func Run(tasks []sim.Duration, kind Kind, p Params, seed uint64) Result {
	st := &State{kind: kind, p: p, q: p.Quantum, rng: sim.NewRNG(seed)}
	return st.Schedule(tasks)
}

// Result reports a batch schedule simulation (see Schedule).
type Result struct {
	// Completion[i] is the virtual time task i finished.
	Completion []sim.Duration
	// Makespan is the completion time of the last task.
	Makespan sim.Duration
	// Switches is the number of context switches taken.
	Switches int
	// Overhead is the total non-application time. It decomposes exactly:
	// Overhead == Switches·ContextSwitch + TickTime + Slack.
	Overhead sim.Duration
	// TickTime is the tick-charge portion of Overhead.
	TickTime sim.Duration
	// Slack is the gang window-padding portion of Overhead.
	Slack sim.Duration
}

// Schedule simulates running the given tasks (pure compute demands) on one
// core under the state's policy and returns per-task completion times.
// Deterministic for the non-adaptive kinds; the adaptive kind is a pure
// function of the state's seed.
//
// Tick accounting: on tick-driven kinds every TickPeriod of busy wall time —
// compute slices and context switches alike — costs TickOverhead. The tick
// fires during a context switch exactly as it does during application work,
// so switch time is stretched by the same tick rate (this is the fix for the
// historical model that stretched only compute slices). Under tickless the
// tick is off while a single task remains. A zero or negative quantum runs
// each task to completion per slice. Gang pads every slice to a full window.
func (s *State) Schedule(tasks []sim.Duration) Result {
	res := Result{Completion: make([]sim.Duration, len(tasks))}
	if len(tasks) == 0 {
		return res
	}

	if s.kind == Coop {
		var now sim.Duration
		for i, w := range tasks {
			if i > 0 {
				now += s.p.ContextSwitch
				res.Switches++
				res.Overhead += s.p.ContextSwitch
			}
			now += w
			res.Completion[i] = now
		}
		res.Makespan = now
		return res
	}

	// Preemptive round robin over the live tasks with per-slice tick
	// accounting; the quantum may adapt between slices.
	tickRate := 0.0
	if s.p.TickPeriod > 0 && s.p.TickOverhead > 0 {
		tickRate = float64(s.p.TickOverhead) / float64(s.p.TickPeriod)
	}
	remaining := make([]sim.Duration, len(tasks))
	copy(remaining, tasks)
	live := len(tasks)
	var now sim.Duration
	cur := -1
	for live > 0 {
		progressed := false
		for i := range remaining {
			if remaining[i] <= 0 {
				continue
			}
			var cs sim.Duration
			if cur != i && cur != -1 {
				cs = s.p.ContextSwitch
				res.Switches++
				res.Overhead += cs
			}
			cur = i
			slice := s.q
			if slice <= 0 || slice > remaining[i] {
				slice = remaining[i]
			}
			var tick sim.Duration
			if tickRate > 0 && !(s.kind == Tickless && live == 1) {
				tick = (slice + cs).Scale(tickRate)
			}
			now += cs + slice + tick
			res.Overhead += tick
			res.TickTime += tick
			if s.kind == Gang && slice < s.q {
				pad := s.q - slice
				now += pad
				res.Overhead += pad
				res.Slack += pad
			}
			remaining[i] -= slice
			if remaining[i] <= 0 {
				res.Completion[i] = now
				live--
			}
			if s.kind == Adaptive {
				s.adapt(slice)
			}
			progressed = true
		}
		if !progressed {
			break
		}
	}
	res.Makespan = now
	return res
}

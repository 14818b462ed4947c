package sched

import (
	"testing"

	"mklite/internal/sim"
)

func mustNew(t *testing.T, k Kind, p Params) Policy {
	t.Helper()
	pol, err := New(k, p)
	if err != nil {
		t.Fatalf("New(%s): %v", k, err)
	}
	return pol
}

func TestParse(t *testing.T) {
	for _, k := range Kinds() {
		got, err := Parse(string(k))
		if err != nil || got != k {
			t.Fatalf("Parse(%s) = %s, %v", k, got, err)
		}
	}
	if got, err := Parse(" CFS "); err != nil || got != CFS {
		t.Fatalf("Parse mixed case = %s, %v", got, err)
	}
	if _, err := Parse("fifo"); err == nil {
		t.Fatal("Parse(fifo) should fail")
	}
	if _, err := Parse(""); err == nil {
		t.Fatal("Parse(empty) should fail")
	}
}

// params is a built-in policy's constants, defaults filled in.
func params(pol Policy) Params { return pol.(policy).p }

func TestNewDefaults(t *testing.T) {
	pol := mustNew(t, CFS, Params{})
	p := params(pol)
	if p.Quantum != DefaultQuantum || p.TickPeriod != DefaultTickPeriod {
		t.Fatalf("cfs defaults: %+v", p)
	}
	if p.TickOverhead != 0 {
		t.Fatalf("cfs must not invent a tick cost: %+v", p)
	}
	if g := params(mustNew(t, Gang, Params{})); g.Quantum != DefaultGangWindow {
		t.Fatalf("gang window default: %+v", g)
	}
	for _, k := range []Kind{RR, Adaptive} {
		if q := params(mustNew(t, k, Params{})); q.TickOverhead != DefaultTimerCost {
			t.Fatalf("%s must arm the quantum timer: %+v", k, q)
		}
	}
	if _, err := New("fifo", Params{}); err == nil {
		t.Fatal("New(fifo) should fail")
	}
	if mustNew(t, Coop, Params{}).Preemptive() {
		t.Fatal("coop is not preemptive")
	}
	if !mustNew(t, CFS, Params{}).Preemptive() {
		t.Fatal("cfs is preemptive")
	}
}

// The default disciplines — and tickless, whose effect is profile shaping —
// must charge nothing per step: a run under them is bit-identical to the
// pre-policy simulator.
func TestStepDefaultPoliciesChargeNothing(t *testing.T) {
	for _, k := range []Kind{CFS, Coop, Tickless} {
		st := mustNew(t, k, Params{ContextSwitch: 2 * sim.Microsecond,
			TickOverhead: 3 * sim.Microsecond}).NewState(1)
		for _, base := range []sim.Duration{0, sim.Microsecond, 25 * sim.Millisecond, sim.Second} {
			if c := st.Step(base); c != (StepCost{}) {
				t.Fatalf("%s.Step(%v) = %+v, want zero", k, base, c)
			}
		}
	}
}

func TestStepRR(t *testing.T) {
	st := mustNew(t, RR, Params{Quantum: 10 * sim.Millisecond,
		ContextSwitch: 2 * sim.Microsecond, TickOverhead: 3 * sim.Microsecond}).NewState(1)
	c := st.Step(25 * sim.Millisecond)
	if c.Switches != 2 || c.Ticks != 2 {
		t.Fatalf("rr expiries: %+v", c)
	}
	if want := 2 * (5 * sim.Microsecond); c.Overhead != want {
		t.Fatalf("rr overhead %v, want %v", c.Overhead, want)
	}
	if c := st.Step(9 * sim.Millisecond); c != (StepCost{}) {
		t.Fatalf("sub-quantum step should be free: %+v", c)
	}
}

func TestStepGang(t *testing.T) {
	st := mustNew(t, Gang, Params{Quantum: sim.Millisecond}).NewState(1)
	c := st.Step(2500 * sim.Microsecond)
	if want := 500 * sim.Microsecond; c.GangSlack != want || c.Overhead != want {
		t.Fatalf("gang slack %+v, want %v", c, want)
	}
	if c := st.Step(3 * sim.Millisecond); c.GangSlack != 0 {
		t.Fatalf("aligned step should have no slack: %+v", c)
	}
}

func TestStepAdaptive(t *testing.T) {
	pol := mustNew(t, Adaptive, Params{Quantum: 10 * sim.Millisecond,
		ContextSwitch: 2 * sim.Microsecond, TickOverhead: 3 * sim.Microsecond})
	// Long steady phases must widen the quantum, decaying the charge.
	st := pol.NewState(42)
	var adjust int64
	first := st.Step(200 * sim.Millisecond)
	adjust += first.Adjusted
	for i := 0; i < 20; i++ {
		adjust += st.Step(200 * sim.Millisecond).Adjusted
	}
	last := st.Step(200 * sim.Millisecond)
	if adjust == 0 {
		t.Fatal("adaptive never widened its quantum")
	}
	if st.q <= 10*sim.Millisecond {
		t.Fatalf("quantum did not widen: %v", st.q)
	}
	if last.Overhead >= first.Overhead {
		t.Fatalf("charge did not decay: first %v, last %v", first.Overhead, last.Overhead)
	}
	// Same seed, same trajectory — the state is a pure function of it.
	a, b := pol.NewState(7), pol.NewState(7)
	for i := 0; i < 50; i++ {
		base := sim.Duration(1+i%17) * sim.Millisecond * 3
		if ca, cb := a.Step(base), b.Step(base); ca != cb {
			t.Fatalf("step %d diverged: %+v vs %+v", i, ca, cb)
		}
	}
}

func TestScheduleCoop(t *testing.T) {
	cs := sim.Microsecond
	st := mustNew(t, Coop, Params{ContextSwitch: cs}).NewState(1)
	tasks := []sim.Duration{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond}
	res := st.Schedule(tasks)
	if want := 60*sim.Millisecond + 2*cs; res.Makespan != want {
		t.Fatalf("makespan %v, want %v", res.Makespan, want)
	}
	if res.Switches != 2 || res.Overhead != 2*cs || res.TickTime != 0 {
		t.Fatalf("coop result: %+v", res)
	}
	if res.Completion[0] != 10*sim.Millisecond {
		t.Fatalf("first completion %v", res.Completion[0])
	}
}

// Overhead must decompose exactly into its parts — the contract callers use
// to attribute scheduler time.
func TestScheduleDecomposition(t *testing.T) {
	cs := 2 * sim.Microsecond
	for _, k := range []Kind{CFS, RR, Gang, Tickless, Adaptive} {
		st := mustNew(t, k, Params{Quantum: 10 * sim.Millisecond, ContextSwitch: cs,
			TickPeriod: 4 * sim.Millisecond, TickOverhead: 3 * sim.Microsecond}).NewState(3)
		res := st.Schedule([]sim.Duration{25 * sim.Millisecond, 10 * sim.Millisecond, 7 * sim.Millisecond})
		if got := sim.Duration(res.Switches)*cs + res.TickTime + res.Slack; res.Overhead != got {
			t.Fatalf("%s: Overhead %v != Switches·CS + TickTime + Slack = %v", k, res.Overhead, got)
		}
		if k != Gang && res.Slack != 0 {
			t.Fatalf("%s recorded gang slack: %+v", k, res)
		}
	}
}

// Tick accounting covers context-switch time too: with tick-free params the
// makespan is smaller by exactly the tick charge.
func TestScheduleTickCoversSwitches(t *testing.T) {
	p := Params{Quantum: 10 * sim.Millisecond, ContextSwitch: 2 * sim.Millisecond,
		TickPeriod: 4 * sim.Millisecond, TickOverhead: 1 * sim.Millisecond}
	tasks := []sim.Duration{25 * sim.Millisecond, 25 * sim.Millisecond}
	ticked := Run(tasks, CFS, p, 1)
	bare := p
	bare.TickOverhead = 0
	flat := Run(tasks, CFS, bare, 1)
	if ticked.TickTime == 0 {
		t.Fatal("no tick charged")
	}
	if ticked.Makespan != flat.Makespan+ticked.TickTime {
		t.Fatalf("makespan %v != tick-free %v + tick %v",
			ticked.Makespan, flat.Makespan, ticked.TickTime)
	}
	// The charge must exceed a compute-only stretch: switch time ticks too.
	rate := float64(p.TickOverhead) / float64(p.TickPeriod)
	computeOnly := (tasks[0] + tasks[1]).Scale(rate)
	if ticked.TickTime <= computeOnly {
		t.Fatalf("tick %v does not cover switch time (compute-only stretch %v)",
			ticked.TickTime, computeOnly)
	}
}

func TestScheduleTicklessSingleTask(t *testing.T) {
	p := Params{Quantum: 10 * sim.Millisecond, ContextSwitch: 2 * sim.Microsecond,
		TickPeriod: 4 * sim.Millisecond, TickOverhead: 3 * sim.Microsecond}
	task := []sim.Duration{25 * sim.Millisecond}
	if res := Run(task, Tickless, p, 1); res.Makespan != task[0] || res.Overhead != 0 {
		t.Fatalf("tickless solo run must be free: %+v", res)
	}
	if res := Run(task, CFS, p, 1); res.Makespan <= task[0] {
		t.Fatalf("cfs solo run must pay the tick: %+v", res)
	}
}

func TestScheduleGangPads(t *testing.T) {
	p := Params{Quantum: sim.Millisecond}
	res := Run([]sim.Duration{2500 * sim.Microsecond}, Gang, p, 1)
	if want := 3 * sim.Millisecond; res.Makespan != want {
		t.Fatalf("gang makespan %v, want %v", res.Makespan, want)
	}
	if res.Slack != 500*sim.Microsecond || res.Overhead != res.Slack {
		t.Fatalf("gang slack: %+v", res)
	}
}

func TestScheduleEdgeCases(t *testing.T) {
	p := Params{ContextSwitch: sim.Microsecond}
	// A zero or negative quantum degrades to run-to-completion slices.
	tasks := []sim.Duration{10 * sim.Millisecond, 20 * sim.Millisecond}
	for _, q := range []sim.Duration{0, -5 * sim.Millisecond} {
		p.Quantum = q
		res := Run(tasks, CFS, p, 1)
		if res.Switches != 1 {
			t.Fatalf("quantum %v switches: %+v", q, res)
		}
		if want := 30*sim.Millisecond + p.ContextSwitch; res.Makespan != want {
			t.Fatalf("quantum %v: makespan %v, want %v", q, res.Makespan, want)
		}
	}
	// Empty task list.
	if res := Run(nil, CFS, p, 1); res.Makespan != 0 || len(res.Completion) != 0 {
		t.Fatalf("empty schedule: %+v", res)
	}
	if res := Run(nil, Coop, p, 1); res.Makespan != 0 {
		t.Fatalf("empty coop schedule: %+v", res)
	}
}

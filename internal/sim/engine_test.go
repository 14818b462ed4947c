package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.RunUntil(Never)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTimestamp(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.RunUntil(Never)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events reordered: %v", order)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine(1)
	var fired Time
	e.At(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.RunUntil(Never)
	if fired != 150 {
		t.Fatalf("nested After fired at %v, want 150", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.RunUntil(Never)
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(25) ran %d events, want 2", len(ran))
	}
	if e.Now() != 25 {
		t.Fatalf("clock at %v after RunUntil(25)", e.Now())
	}
	// Resume: remaining events still fire.
	e.RunUntil(Never)
	if len(ran) != 4 {
		t.Fatalf("resume ran %d total events, want 4", len(ran))
	}
}

func TestEngineRunUntilEmptyAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("clock %v after RunUntil on empty queue, want 500", e.Now())
	}
}

func TestEngineStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
	e.At(1, func() {})
	if !e.Step() {
		t.Fatal("Step with pending event returned false")
	}
}

func TestEngineExecutedCount(t *testing.T) {
	e := NewEngine(1)
	executed := 0
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() { executed++ })
	}
	e.RunUntil(Never)
	if executed != 5 {
		t.Fatalf("%d events executed, want 5", executed)
	}
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	trace := func() []Time {
		e := NewEngine(99)
		r := e.RNG()
		var out []Time
		var step func()
		n := 0
		step = func() {
			out = append(out, e.Now())
			n++
			if n < 50 {
				e.After(Duration(1+r.Intn(100)), step)
			}
		}
		e.After(0, step)
		e.RunUntil(Never)
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, the engine executes events
// in non-decreasing time order.
func TestEngineMonotoneClockProperty(t *testing.T) {
	check := func(delays []uint16) bool {
		e := NewEngine(1)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.At(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.RunUntil(Never)
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(5 * Duration(Second))
	if tm.Seconds() != 5 {
		t.Fatalf("Seconds() = %v", tm.Seconds())
	}
	if !Time(1).Before(Time(2)) || !Time(2).After(Time(1)) {
		t.Fatal("Before/After broken")
	}
	if Time(10).Sub(Time(4)) != 6 {
		t.Fatal("Sub broken")
	}
	if Never.String() != "never" {
		t.Fatalf("Never.String() = %q", Never.String())
	}
}

func TestDurationOfClampsNegative(t *testing.T) {
	if DurationOf(-1) != 0 {
		t.Fatal("DurationOf(-1) != 0")
	}
	if DurationOf(1.5) != Duration(1500*Millisecond) {
		t.Fatalf("DurationOf(1.5) = %v", DurationOf(1.5))
	}
}

func TestDurationScale(t *testing.T) {
	d := Duration(1000)
	if d.Scale(2.5) != 2500 {
		t.Fatalf("Scale(2.5) = %v", d.Scale(2.5))
	}
	if d.Scale(-1) != 0 {
		t.Fatalf("Scale(-1) = %v, want 0", d.Scale(-1))
	}
}

func TestDurationMicros(t *testing.T) {
	if Duration(2500).Micros() != 2.5 {
		t.Fatalf("Micros() = %v", Duration(2500).Micros())
	}
}

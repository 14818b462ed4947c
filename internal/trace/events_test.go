package trace

import (
	"strings"
	"testing"
)

// TestRingDroppedAccounting: eviction counts are exact across multiple full
// wraparounds, NoteDropped folds external losses in, and the exported JSON
// reports the total.
func TestRingDroppedAccounting(t *testing.T) {
	e := NewEvents(4)
	if e.cap != 4 {
		t.Fatalf("cap = %d, want 4", e.cap)
	}
	for i := range 4 {
		e.Emit(Event{Name: "n", Cat: "c", Ph: PhInstant, TS: int64(i)})
	}
	if e.Dropped() != 0 {
		t.Fatalf("Dropped() = %d before the ring filled", e.Dropped())
	}
	// 2.5 more laps: 10 evictions.
	for i := 4; i < 14; i++ {
		e.Emit(Event{Name: "n", Cat: "c", Ph: PhInstant, TS: int64(i)})
	}
	if e.Len() != 4 || e.Dropped() != 10 {
		t.Fatalf("len=%d dropped=%d, want 4/10", e.Len(), e.Dropped())
	}
	e.NoteDropped(3)
	e.NoteDropped(0)
	e.NoteDropped(-5) // negative folds are ignored, never uncount
	if e.Dropped() != 13 {
		t.Fatalf("Dropped() = %d after NoteDropped, want 13", e.Dropped())
	}
	if out := string(e.JSON()); !strings.Contains(out, `"dropped":13`) {
		t.Fatalf("JSON does not report the eviction count:\n%s", out)
	}
}

// TestSnapshotOrderAfterWraparound: Snapshot returns emission order however
// far the start index has rotated, including the exact-boundary lap.
func TestSnapshotOrderAfterWraparound(t *testing.T) {
	for emitted := 3; emitted <= 13; emitted++ {
		e := NewEvents(5)
		for i := range emitted {
			e.Emit(Event{Name: "n", Cat: "c", Ph: PhInstant, TS: int64(i)})
		}
		snap := e.Snapshot()
		want := min(emitted, 5)
		if len(snap) != want {
			t.Fatalf("emitted %d: snapshot has %d events, want %d", emitted, len(snap), want)
		}
		first := int64(max(emitted-5, 0))
		for i, ev := range snap {
			if ev.TS != first+int64(i) {
				t.Fatalf("emitted %d: snapshot[%d].TS = %d, want %d (oldest-first emission order)",
					emitted, i, ev.TS, first+int64(i))
			}
		}
	}
}

// TestCounterSeriesOnWrappedRing: a series extracted from a wrapped ring
// keeps emission order and contains exactly the retained samples — the
// oldest points fall off with the eviction, the survivors stay monotone.
func TestCounterSeriesOnWrappedRing(t *testing.T) {
	e := NewEvents(6)
	// Interleave two series plus noise so the retained window holds a mix.
	for i := range 12 {
		e.Emit(Event{Name: "queue-depth", Cat: "counter", Ph: PhCounter,
			TS: int64(i * 10), Args: map[string]int64{"value": int64(i)}})
		e.Emit(Event{Name: "noise", Cat: "c", Ph: PhInstant, TS: int64(i*10 + 1)})
	}
	if e.Dropped() != 18 {
		t.Fatalf("dropped = %d, want 18", e.Dropped())
	}
	series := e.CounterSeries("queue-depth")
	// 6 retained events alternate queue-depth / noise: 3 samples, the newest
	// ones (i = 9, 10, 11).
	if len(series) != 3 {
		t.Fatalf("series has %d samples, want 3: %+v", len(series), series)
	}
	for i, s := range series {
		wantV := int64(9 + i)
		if s.Value != wantV || s.TS != wantV*10 {
			t.Fatalf("series[%d] = %+v, want value %d at ts %d", i, s, wantV, wantV*10)
		}
		if i > 0 && s.TS <= series[i-1].TS {
			t.Fatalf("series not monotone after wraparound: %+v", series)
		}
	}
	if got := e.CounterSeries("evicted-entirely"); got != nil {
		t.Fatalf("unknown series = %+v, want nil", got)
	}
}

// TestRescoped: the job-scoping primitive re-homes pid and shifts time
// uniformly, preserves tids and args, and leaves the input untouched.
func TestRescoped(t *testing.T) {
	in := []Event{
		{Name: "step", Cat: "phase", Ph: PhBegin, TS: 0, Pid: 0, Tid: 1},
		{Name: "step", Cat: "phase", Ph: PhEnd, TS: 40, Pid: 0, Tid: 1,
			Args: map[string]int64{"k": 7}},
	}
	out := Rescoped(in, 9, 100)
	if in[0].Pid != 0 || in[1].TS != 40 {
		t.Fatal("Rescoped mutated its input")
	}
	if out[0].Pid != 9 || out[1].Pid != 9 {
		t.Fatalf("pids not re-homed: %+v", out)
	}
	if out[0].TS != 100 || out[1].TS != 140 {
		t.Fatalf("timestamps not shifted: %+v", out)
	}
	if out[0].Tid != 1 || out[1].Args["k"] != 7 {
		t.Fatalf("tid or args lost: %+v", out)
	}
	if got := Rescoped(nil, 1, 1); len(got) != 0 {
		t.Fatalf("Rescoped(nil) = %+v", got)
	}
}

// TestValidateToleratesEvictionOrphans: a wrapped ring whose eviction
// orphaned a B/E pair still validates (the dropped count licenses the
// imbalance) while the same shape with dropped=0 is rejected.
func TestValidateToleratesEvictionOrphans(t *testing.T) {
	e := NewEvents(2)
	e.Emit(Event{Name: "a", Cat: "c", Ph: PhBegin, TS: 0})
	e.Emit(Event{Name: "b", Cat: "c", Ph: PhBegin, TS: 1})
	e.Emit(Event{Name: "b", Cat: "c", Ph: PhEnd, TS: 2})
	e.Emit(Event{Name: "a", Cat: "c", Ph: PhEnd, TS: 3})
	if e.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", e.Dropped())
	}
	// Retained window: E b, E a — orphans, but eviction-licensed.
	if err := Validate(e.JSON()); err != nil {
		t.Fatalf("eviction orphans rejected: %v", err)
	}
	clean := NewEvents(0)
	clean.Emit(Event{Name: "b", Cat: "c", Ph: PhEnd, TS: 2})
	if err := Validate(clean.JSON()); err == nil {
		t.Fatal("orphan E accepted with dropped=0")
	}
}

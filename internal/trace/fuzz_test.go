package trace

import (
	"bytes"
	"maps"
	"slices"
	"testing"
)

// validTraceSeed is a balanced export with every phase, two lanes and
// nested spans, as Events.JSON writes it.
func validTraceSeed() []byte {
	ev := NewEvents(0)
	ev.Emit(Event{Name: "run", Cat: "sim", Ph: PhBegin, TS: 0, Pid: 1, Tid: 0})
	ev.Emit(Event{Name: "step", Cat: "mpi", Ph: PhBegin, TS: 1500, Pid: 1, Tid: 0})
	ev.Emit(Event{Name: "collective", Cat: "mpi", Ph: PhInstant, TS: 1999, Pid: 1, Tid: 2,
		Args: map[string]int64{"max_rank": 7, "skew_ns": 120}})
	ev.Emit(Event{Name: "heap.bytes", Cat: "mem", Ph: PhCounter, TS: 2000, Pid: 1, Tid: 2})
	ev.Emit(Event{Name: "step", Cat: "mpi", Ph: PhEnd, TS: 2001, Pid: 1, Tid: 0})
	ev.Emit(Event{Name: "run", Cat: "sim", Ph: PhEnd, TS: 1_000_000_007, Pid: 1, Tid: 0})
	return ev.JSON()
}

// FuzzValidate feeds arbitrary bytes to Validate and ParseEvents. Neither
// may panic; whatever Validate accepts ParseEvents accepts; ParseEvents
// returns one event per input event; and an accepted export written back
// through Events.JSON parses to the same events and dropped count, and
// still validates when the original did. The seeds cover a valid export,
// an evicted ring, names that need escaping, and the shapes the readers
// reject.
func FuzzValidate(f *testing.F) {
	f.Add(validTraceSeed())
	f.Add([]byte(`{"traceEvents":[{"name":"a","ph":"E","ts":1,"pid":0,"tid":0}],"otherData":{"schema":"mklite-trace/v1","dropped":3}}`))
	f.Add([]byte(`{"traceEvents":[],"otherData":{"schema":"mklite-trace/v1","dropped":0}}`))
	f.Add([]byte(`{"otherData":{"schema":"mklite-trace/v1"}}`))
	f.Add([]byte(`{"traceEvents":[{"name":"a\u0007","ph":"i","ts":0.001,"pid":4294967296,"tid":0}],"otherData":{"schema":"mklite-trace/v1"}}`))
	f.Add([]byte(`{"traceEvents":[{"name":"a\u0007\u001f\"\\\ufffd","cat":"\t","ph":"i","ts":0.001,"pid":1,"tid":0}],"otherData":{"schema":"mklite-trace/v1"}}`))
	f.Add([]byte(`{"traceEvents":[{"name":"a","ph":"B","ts":-1,"pid":0,"tid":0}],"otherData":{"schema":"mklite-trace/v1"}}`))
	f.Add([]byte(`{"traceEvents":[{"name":"a","ph":"X","ts":2,"pid":0,"tid":0}],"otherData":{"schema":"mklite-counters/v1"}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		verr := Validate(data)
		evs, dropped, perr := ParseEvents(data)
		if perr != nil {
			if verr == nil {
				t.Fatalf("Validate accepts what ParseEvents rejects: %v", perr)
			}
			if evs != nil || dropped != 0 {
				t.Fatalf("ParseEvents returned %d events and dropped %d with error %v", len(evs), dropped, perr)
			}
			return
		}
		tr, err := parseTrace(data)
		if err != nil || len(tr.TraceEvents) != len(evs) {
			t.Fatalf("ParseEvents returned %d events for %d in the input (%v)", len(evs), len(tr.TraceEvents), err)
		}
		ring := NewEvents(len(evs) + 1)
		for _, ev := range evs {
			ring.Emit(ev)
		}
		ring.NoteDropped(dropped)
		out := ring.JSON()
		again, againDropped, err := ParseEvents(out)
		if err != nil {
			t.Fatalf("written back export does not parse: %v\n%s", err, out)
		}
		if againDropped != dropped || !slices.EqualFunc(again, evs, func(a, b Event) bool {
			return a.Name == b.Name && a.Cat == b.Cat && a.Ph == b.Ph && a.TS == b.TS && a.Pid == b.Pid && a.Tid == b.Tid
		}) {
			t.Fatalf("round trip changed the events:\n  in:  %+v (dropped %d)\n  out: %+v (dropped %d)", evs, dropped, again, againDropped)
		}
		if verr == nil {
			if err := Validate(out); err != nil {
				t.Fatalf("written back export of a valid trace fails Validate: %v\n%s", err, out)
			}
		}
	})
}

// FuzzReadCounters feeds arbitrary bytes to ReadCounters. It may not panic,
// it returns a map exactly when it returns no error, and an accepted map
// written back through Counters.WriteJSON reads back equal.
func FuzzReadCounters(f *testing.F) {
	c := NewCounters()
	c.Add("heap.grows", 3028)
	c.Add("noise.src.daemon_ns", 0)
	c.Add("custom<&>", -7)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"mklite-counters/v1","counters":{}}`))
	f.Add([]byte(`{"schema":"mklite-counters/v1"}`))
	f.Add([]byte(`{"schema":"mklite-counters/v1","counters":null}`))
	f.Add([]byte(`{"schema":"mklite-counters/v1","counters":{"a":1.5}}`))
	f.Add([]byte(`{"schema":"bogus","counters":{"a":1}}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadCounters(data)
		if err != nil {
			if m != nil {
				t.Fatalf("ReadCounters returned %d counters with error %v", len(m), err)
			}
			return
		}
		if m == nil {
			t.Fatal("ReadCounters returned neither counters nor an error")
		}
		c := NewCounters()
		c.MergeMap(m)
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCounters(buf.Bytes())
		if err != nil {
			t.Fatalf("written back counters do not read: %v\n%s", err, buf.Bytes())
		}
		if !maps.Equal(again, m) {
			t.Fatalf("round trip changed the counters:\n  in:  %v\n  out: %v", m, again)
		}
	})
}

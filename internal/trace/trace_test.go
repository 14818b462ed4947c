package trace

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestNilSinkIsSafeAndOff(t *testing.T) {
	var s *Sink
	s.Count("x", 1)
	s.CountMax("x", 5)
	s.Begin(0, 0, 0, "a", "b")
	s.End(1, 0, 0, "a", "b")
	s.Instant(2, 0, 0, "a", "b", nil)
	s.CounterEvent(3, 0, "a", 1)
	if s.Counting() || s.Eventing() {
		t.Fatal("nil sink claims to be on")
	}
	if s.Counters() != nil || s.Events() != nil {
		t.Fatal("nil sink exposes backends")
	}
	if NewSink(nil, nil) != nil {
		t.Fatal("NewSink(nil, nil) must be nil so off stays on the fast path")
	}
}

func TestCountersAddMaxMerge(t *testing.T) {
	a := NewCounters()
	a.Add("heap.grows", 2)
	a.Add("heap.grows", 3)
	a.Max("heap.peak_bytes", 100)
	a.Max("heap.peak_bytes", 50) // lower: no-op
	b := NewCounters()
	b.Add("heap.grows", 10)
	b.Add("heap.shrinks", 1)
	a.Merge(b)
	if got := a.Get("heap.grows"); got != 15 {
		t.Fatalf("heap.grows = %d, want 15", got)
	}
	if got := a.Get("heap.peak_bytes"); got != 100 {
		t.Fatalf("heap.peak_bytes = %d, want 100", got)
	}
	if got := a.Names(); len(got) != 3 || got[0] != "heap.grows" || got[2] != "heap.shrinks" {
		t.Fatalf("Names() = %v, want sorted 3 keys", got)
	}
}

// TestCountersReplay: replaying a recorded stretch n times leaves the same
// counters as emitting it n times over, for interned and dynamic names,
// sums and peaks alike.
func TestCountersReplay(t *testing.T) {
	emit := func(c *Counters) {
		c.AddKey(KeyHeapGrows, 2)
		c.MaxKey(KeyHeapPeakBytes, 300)
		c.Add("noise.src.kworker_ns", 7)
		c.Max("fleet.batch_max", 4)
		c.AddKey(KeyHeapShrinks, 0)
	}
	for _, n := range []int64{1, 3} {
		want, got, rec := NewCounters(), NewCounters(), NewCounters()
		for _, c := range []*Counters{want, got} {
			c.MaxKey(KeyHeapPeakBytes, 100)
			c.Max("fleet.batch_max", 9)
			c.AddKey(KeyHeapGrows, 1)
		}
		for range n {
			emit(want)
		}
		emit(rec)
		got.Replay(rec, n)
		if g, w := got.Map(), want.Map(); len(g) != len(w) {
			t.Fatalf("n=%d: replay %v, emitted %v", n, g, w)
		} else {
			for k, v := range w {
				if g[k] != v {
					t.Errorf("n=%d: %s = %d after replay, %d emitted", n, k, g[k], v)
				}
			}
		}
	}
}

func TestCountersRoundTripAndDiff(t *testing.T) {
	c := NewCounters()
	c.Add("syscall.brk", 7526)
	c.Add("mem.fault.4KiB", 12)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ReadCounters(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m["syscall.brk"] != 7526 || m["mem.fault.4KiB"] != 12 {
		t.Fatalf("round trip lost values: %v", m)
	}
	if _, err := ReadCounters([]byte(`{"schema":"bogus","counters":{}}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	rows := DiffCounters(map[string]int64{"a": 1, "b": 2}, map[string]int64{"b": 5, "c": 3})
	if len(rows) != 3 || rows[0].Name != "a" || rows[0].Delta() != -1 ||
		rows[1].Name != "b" || rows[1].Delta() != 3 || rows[2].Name != "c" || rows[2].Delta() != 3 {
		t.Fatalf("DiffCounters = %+v", rows)
	}
}

func TestEventsRingEviction(t *testing.T) {
	e := NewEvents(3)
	for i := 0; i < 5; i++ {
		e.Emit(Event{Name: "n", Cat: "c", Ph: PhInstant, TS: int64(i)})
	}
	if e.Len() != 3 || e.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", e.Len(), e.Dropped())
	}
	snap := e.Snapshot()
	if snap[0].TS != 2 || snap[2].TS != 4 {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
}

func TestJSONExportAndValidate(t *testing.T) {
	e := NewEvents(0)
	s := NewSink(nil, e)
	s.Begin(1000, 0, 0, "step", "cluster")
	s.Begin(1000, 0, 0, "compute", "cluster")
	s.End(2500, 0, 0, "compute", "cluster")
	s.Instant(2500, 0, 0, "collective", "mpi", map[string]int64{"max_rank": 3, "detour_ns": 120})
	s.CounterEvent(3000, 0, "offload.queue_depth", 2)
	s.End(3000, 0, 0, "step", "cluster")
	out := e.JSON()
	if err := Validate(out); err != nil {
		t.Fatalf("Validate: %v\n%s", err, out)
	}
	txt := string(out)
	for _, want := range []string{`"ts":1.000`, `"ts":2.500`, `"displayTimeUnit":"ns"`,
		`"args":{"detour_ns":120,"max_rank":3}`, `"schema":"mklite-trace/v1"`} {
		if !strings.Contains(txt, want) {
			t.Fatalf("JSON missing %q:\n%s", want, txt)
		}
	}
	series := e.CounterSeries("offload.queue_depth")
	if len(series) != 1 || series[0].TS != 3000 || series[0].Value != 2 {
		t.Fatalf("CounterSeries = %+v", series)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{`,
		"bad schema":    `{"traceEvents":[],"otherData":{"schema":"x","dropped":0}}`,
		"bad phase":     `{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":0,"tid":0}],"otherData":{"schema":"mklite-trace/v1","dropped":0}}`,
		"non-monotone":  `{"traceEvents":[{"name":"a","ph":"i","ts":5,"pid":0,"tid":0},{"name":"b","ph":"i","ts":1,"pid":0,"tid":0}],"otherData":{"schema":"mklite-trace/v1","dropped":0}}`,
		"orphan E":      `{"traceEvents":[{"name":"a","ph":"E","ts":0,"pid":0,"tid":0}],"otherData":{"schema":"mklite-trace/v1","dropped":0}}`,
		"unclosed B":    `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0}],"otherData":{"schema":"mklite-trace/v1","dropped":0}}`,
		"mismatched BE": `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0},{"name":"b","ph":"E","ts":1,"pid":0,"tid":0}],"otherData":{"schema":"mklite-trace/v1","dropped":0}}`,
	}
	for name, data := range cases {
		if err := Validate([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// With drops, unbalanced spans are tolerated but monotonicity still holds.
	dropped := `{"traceEvents":[{"name":"a","ph":"E","ts":0,"pid":0,"tid":0}],"otherData":{"schema":"mklite-trace/v1","dropped":4}}`
	if err := Validate([]byte(dropped)); err != nil {
		t.Errorf("dropped trace rejected: %v", err)
	}
}

// ParseEvents and Validate share their per-event checks: both reject a
// missing traceEvents array, a negative dropped count, an unknown phase, an
// empty name, a pid or tid outside 32 bits, and a timestamp outside
// [0, maxEventTS] ns, rather than returning truncated or zero values.
func TestParseEventsRejectsMalformed(t *testing.T) {
	trace := func(event string, dropped int) string {
		return `{"traceEvents":[` + event + `],"otherData":{"schema":"mklite-trace/v1","dropped":` + strconv.Itoa(dropped) + `}}`
	}
	cases := map[string]string{
		"no traceEvents":   `{"otherData":{"schema":"mklite-trace/v1","dropped":0}}`,
		"null traceEvents": `{"traceEvents":null,"otherData":{"schema":"mklite-trace/v1","dropped":0}}`,
		"negative dropped": trace(`{"name":"a","ph":"i","ts":0,"pid":0,"tid":0}`, -1),
		"unknown phase":    trace(`{"name":"a","ph":"X","ts":0,"pid":0,"tid":0}`, 0),
		"empty name":       trace(`{"name":"","ph":"i","ts":0,"pid":0,"tid":0}`, 0),
		"pid over 32 bits": trace(`{"name":"a","ph":"i","ts":0,"pid":4294967296,"tid":0}`, 0),
		"tid over 32 bits": trace(`{"name":"a","ph":"i","ts":0,"pid":0,"tid":-2147483649}`, 0),
		"negative ts":      trace(`{"name":"a","ph":"i","ts":-0.001,"pid":0,"tid":0}`, 0),
		"ts past the cap":  trace(`{"name":"a","ph":"i","ts":1125899906842.625,"pid":0,"tid":0}`, 0),
	}
	for name, data := range cases {
		if evs, _, err := ParseEvents([]byte(data)); err == nil {
			t.Errorf("%s: ParseEvents accepted it as %+v", name, evs)
		}
		if err := Validate([]byte(data)); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
	// The cap itself and 32-bit extremes are accepted.
	edge := trace(`{"name":"a","ph":"i","ts":1125899906842.624,"pid":2147483647,"tid":-2147483648}`, 0)
	evs, _, err := ParseEvents([]byte(edge))
	if err != nil || len(evs) != 1 || evs[0].TS != maxEventTS || evs[0].Pid != math.MaxInt32 || evs[0].Tid != math.MinInt32 {
		t.Fatalf("edge trace: %+v, %v", evs, err)
	}
}

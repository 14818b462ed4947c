package trace

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
)

// rawEvent mirrors the JSON shape for validation.
type rawEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Pid  int64   `json:"pid"`
	Tid  int64   `json:"tid"`
}

// maxEventTS bounds an event's timestamp in virtual nanoseconds (about 13
// days). Below it the export's microsecond decimal converts back to the
// same nanosecond exactly.
const maxEventTS = 1 << 50

// parseTrace decodes a trace-event export and checks what ParseEvents and
// Validate share: the schema, a traceEvents array, a dropped count of at
// least 0, and for every event a known phase, a name, 32-bit pid and tid,
// and a timestamp in [0, maxEventTS] ns.
func parseTrace(data []byte) (*rawTrace, error) {
	var tr rawTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if tr.OtherData.Schema != EventsSchema {
		return nil, fmt.Errorf("trace: schema %q, want %q", tr.OtherData.Schema, EventsSchema)
	}
	if tr.TraceEvents == nil {
		return nil, fmt.Errorf("trace: no traceEvents array")
	}
	if tr.OtherData.Dropped < 0 {
		return nil, fmt.Errorf("trace: negative dropped count %d", tr.OtherData.Dropped)
	}
	for i, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "B", "E", "i", "C":
		default:
			return nil, fmt.Errorf("trace: event %d: unknown phase %q", i, ev.Ph)
		}
		if ev.Name == "" {
			return nil, fmt.Errorf("trace: event %d: empty name", i)
		}
		if ev.Pid != int64(int32(ev.Pid)) || ev.Tid != int64(int32(ev.Tid)) {
			return nil, fmt.Errorf("trace: event %d (%s): pid %d tid %d outside 32 bits", i, ev.Name, ev.Pid, ev.Tid)
		}
		if !(ev.TS >= 0 && ev.TS*1000 <= maxEventTS) {
			return nil, fmt.Errorf("trace: event %d (%s): ts %g µs outside [0, %d ns]", i, ev.Name, ev.TS, maxEventTS)
		}
	}
	return &tr, nil
}

// ParseEvents parses a Chrome trace-event export produced by Events.JSON
// back into Event records — timestamps converted from the format's
// microsecond floats back to virtual nanoseconds — plus the ring's
// dropped-event count. It checks the schema and each event but not span
// balance or ordering; run Validate first when those matter (the flame
// exporter does).
func ParseEvents(data []byte) ([]Event, int64, error) {
	tr, err := parseTrace(data)
	if err != nil {
		return nil, 0, err
	}
	out := make([]Event, 0, len(tr.TraceEvents))
	for _, ev := range tr.TraceEvents {
		out = append(out, Event{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   ev.Ph[0],
			TS:   int64(math.Round(ev.TS * 1000)),
			Pid:  int32(ev.Pid),
			Tid:  int32(ev.Tid),
		})
	}
	return out, tr.OtherData.Dropped, nil
}

type rawTrace struct {
	TraceEvents []rawEvent `json:"traceEvents"`
	OtherData   struct {
		Schema  string `json:"schema"`
		Dropped int64  `json:"dropped"`
	} `json:"otherData"`
}

// Validate checks that data is a well-formed Chrome trace-event JSON dump as
// this package emits it: everything ParseEvents checks, per-(pid,tid) monotone
// timestamps, and balanced B/E spans with matching names. When the ring
// dropped events the balance check is skipped (eviction can orphan spans)
// but monotonicity still must hold. mkrun -trace-json runs it before
// writing, and mkobs validate runs it on trace and timeline artifacts.
func Validate(data []byte) error {
	tr, err := parseTrace(data)
	if err != nil {
		return err
	}
	type lane struct{ pid, tid int64 }
	lastTS := map[lane]float64{}
	stacks := map[lane][]string{}
	for i, ev := range tr.TraceEvents {
		l := lane{ev.Pid, ev.Tid}
		if prev, ok := lastTS[l]; ok && ev.TS < prev {
			return fmt.Errorf("trace: event %d (%s): non-monotonic ts %.3f after %.3f on pid %d tid %d",
				i, ev.Name, ev.TS, prev, ev.Pid, ev.Tid)
		}
		lastTS[l] = ev.TS
		if tr.OtherData.Dropped > 0 {
			continue // eviction can orphan B/E pairs
		}
		switch ev.Ph {
		case "B":
			stacks[l] = append(stacks[l], ev.Name)
		case "E":
			st := stacks[l]
			if len(st) == 0 {
				return fmt.Errorf("trace: event %d: E %q with no open span on pid %d tid %d",
					i, ev.Name, ev.Pid, ev.Tid)
			}
			if top := st[len(st)-1]; top != ev.Name {
				return fmt.Errorf("trace: event %d: E %q closes open span %q on pid %d tid %d",
					i, ev.Name, top, ev.Pid, ev.Tid)
			}
			stacks[l] = st[:len(st)-1]
		}
	}
	if tr.OtherData.Dropped == 0 {
		lanes := slices.SortedFunc(maps.Keys(stacks), func(a, b lane) int {
			if a.pid != b.pid {
				return int(a.pid - b.pid)
			}
			return int(a.tid - b.tid)
		})
		for _, l := range lanes {
			if st := stacks[l]; len(st) > 0 {
				return fmt.Errorf("trace: %d unclosed span(s) on pid %d tid %d (first: %q)",
					len(st), l.pid, l.tid, st[0])
			}
		}
	}
	return nil
}

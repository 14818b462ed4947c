package trace

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
)

// Event phases, a subset of the Chrome trace-event format.
const (
	PhBegin   = 'B' // duration span open
	PhEnd     = 'E' // duration span close
	PhInstant = 'i' // point event
	PhCounter = 'C' // counter sample
)

// EventsSchema versions the exported trace JSON.
const EventsSchema = "mklite-trace/v1"

// DefaultEventCap bounds the ring when the caller does not choose a size.
const DefaultEventCap = 1 << 17

// Event is one trace record. TS is virtual nanoseconds (sim.Time's unit);
// export converts to the microsecond floats Chrome/Perfetto expect.
type Event struct {
	Name string
	Cat  string
	Ph   byte
	TS   int64
	Pid  int32
	Tid  int32
	Args map[string]int64
}

// Events is the bounded-ring backend: it retains the most recent cap events
// and counts what it evicted. Like Sink it is per-run, single-goroutine
// state.
type Events struct {
	cap     int
	buf     []Event
	start   int // index of the oldest retained event
	dropped int64
}

// NewEvents returns a ring holding at most cap events (DefaultEventCap when
// cap <= 0).
func NewEvents(cap int) *Events {
	if cap <= 0 {
		cap = DefaultEventCap
	}
	return &Events{cap: cap}
}

// Emit appends an event, evicting the oldest when full.
func (e *Events) Emit(ev Event) {
	if len(e.buf) < e.cap {
		e.buf = append(e.buf, ev)
		return
	}
	e.buf[e.start] = ev
	e.start = (e.start + 1) % e.cap
	e.dropped++
}

// Len returns the number of retained events.
func (e *Events) Len() int { return len(e.buf) }

// Cap returns the ring's capacity.
func (e *Events) Cap() int { return e.cap }

// Dropped returns the number of evicted events.
func (e *Events) Dropped() int64 { return e.dropped }

// NoteDropped folds n externally-dropped events into the ring's eviction
// count. The facility timeline uses this when merging a job-local ring that
// itself evicted: the merged document must report the loss so Validate knows
// orphaned B/E pairs are eviction damage, not corruption.
func (e *Events) NoteDropped(n int64) {
	if n > 0 {
		e.dropped += n
	}
}

// Snapshot returns the retained events in emission order.
func (e *Events) Snapshot() []Event {
	out := make([]Event, 0, len(e.buf))
	out = append(out, e.buf[e.start:]...)
	out = append(out, e.buf[:e.start]...)
	return out
}

// Rescoped returns a copy of evs re-homed onto another track: every event's
// Pid becomes pid and every timestamp shifts by dt. This is the job-scoping
// primitive of internal/obs: a job's run-local events (pid 0, virtual time
// starting at the job's own zero) become a facility-timeline track keyed by
// the job's pid and the facility clock. Tids are preserved — they are lanes
// within the job (phase spans vs collective instants), and per-lane timestamp
// monotonicity survives a uniform shift.
func Rescoped(evs []Event, pid int32, dt int64) []Event {
	out := make([]Event, len(evs))
	for i, ev := range evs {
		ev.Pid = pid
		ev.TS += dt
		out[i] = ev
	}
	return out
}

// CounterSample is one point of a counter-event series.
type CounterSample struct {
	TS    int64 // virtual nanoseconds
	Value int64
}

// CounterSeries extracts the samples of one 'C' series in emission order —
// e.g. the offload queue-depth timeline the offloadstorm example prints.
func (e *Events) CounterSeries(name string) []CounterSample {
	var out []CounterSample
	for _, ev := range e.Snapshot() {
		if ev.Ph == PhCounter && ev.Name == name {
			out = append(out, CounterSample{TS: ev.TS, Value: ev.Args["value"]})
		}
	}
	return out
}

// JSON renders the ring as Chrome trace-event JSON ("JSON object format").
// Timestamps become microsecond floats with nanosecond precision; args keys
// are emitted sorted so the bytes are deterministic. The otherData block
// carries the schema id and the eviction count that Validate uses to decide
// whether unbalanced spans are tolerable.
func (e *Events) JSON() []byte {
	var b bytes.Buffer
	b.WriteString(`{"traceEvents":[`)
	for i, ev := range e.Snapshot() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"name":`)
		writeJSONString(&b, ev.Name)
		b.WriteString(`,"cat":`)
		writeJSONString(&b, ev.Cat)
		b.WriteString(`,"ph":`)
		writeJSONString(&b, string(ev.Ph))
		fmt.Fprintf(&b, `,"ts":%d.%03d,"pid":%d,"tid":%d`, ev.TS/1000, ev.TS%1000, ev.Pid, ev.Tid)
		if len(ev.Args) > 0 {
			b.WriteString(`,"args":{`)
			for j, k := range slices.Sorted(maps.Keys(ev.Args)) {
				if j > 0 {
					b.WriteByte(',')
				}
				writeJSONString(&b, k)
				fmt.Fprintf(&b, `:%d`, ev.Args[k])
			}
			b.WriteByte('}')
		}
		b.WriteByte('}')
	}
	fmt.Fprintf(&b, `],"displayTimeUnit":"ns","otherData":{"schema":%q,"dropped":%d}}`,
		EventsSchema, e.dropped)
	b.WriteByte('\n')
	return b.Bytes()
}

// writeJSONString writes s as a JSON string. Printable text comes out as
// %q would write it; control characters are escaped the way JSON allows
// (where %q's \a, \v and \x.. are not JSON), and invalid UTF-8 becomes
// U+FFFD, which is what a JSON reader makes of it anyway.
func writeJSONString(b *bytes.Buffer, s string) {
	b.WriteByte('"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			b.WriteByte('\\')
			b.WriteRune(r)
		case r == '\n':
			b.WriteString(`\n`)
		case r == '\r':
			b.WriteString(`\r`)
		case r == '\t':
			b.WriteString(`\t`)
		case r < 0x20:
			fmt.Fprintf(b, `\u%04x`, r)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
}

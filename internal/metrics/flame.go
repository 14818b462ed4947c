package metrics

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"mklite/internal/trace"
)

// Folded converts a run's balanced B/E trace spans into Brendan Gregg's
// collapsed-stack format — one line per unique span stack,
//
//	pid0/tid0;step;compute 123456
//
// weighted by virtual-nanosecond self time (a span's duration minus its
// children's), ready for speedscope, inferno or flamegraph.pl. Lines are
// emitted sorted, so the export is byte-deterministic.
//
// The conversion is lenient the same way trace.Validate is strict: an E
// with no matching open span (a ring-evicted partner) is skipped, and spans
// still open at the end contribute nothing. Run trace.Validate first when
// orphans should be an error. Instant and counter events carry no duration
// and are ignored.
func Folded(events []trace.Event) string {
	type lane struct{ pid, tid int32 }
	type frame struct {
		name      string
		start     int64
		childTime int64
	}
	stacks := map[lane][]frame{}
	weights := map[string]int64{}

	for _, ev := range events {
		l := lane{ev.Pid, ev.Tid}
		switch ev.Ph {
		case trace.PhBegin:
			stacks[l] = append(stacks[l], frame{name: ev.Name, start: ev.TS})
		case trace.PhEnd:
			st := stacks[l]
			if len(st) == 0 || st[len(st)-1].name != ev.Name {
				continue // orphaned by ring eviction
			}
			top := st[len(st)-1]
			stacks[l] = st[:len(st)-1]
			dur := ev.TS - top.start
			if dur < 0 {
				dur = 0
			}
			self := dur - top.childTime
			if self < 0 {
				self = 0
			}
			var key strings.Builder
			fmt.Fprintf(&key, "pid%d/tid%d", l.pid, l.tid)
			for _, f := range stacks[l] {
				key.WriteByte(';')
				key.WriteString(f.name)
			}
			key.WriteByte(';')
			key.WriteString(top.name)
			weights[key.String()] += self
			if n := len(stacks[l]); n > 0 {
				stacks[l][n-1].childTime += dur
			}
		}
	}

	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(weights)) {
		if weights[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s %d\n", k, weights[k])
	}
	return b.String()
}

// FoldedFromJSON parses a Chrome trace-event export (an mkrun -trace-json
// artifact or an mkfleet timeline) and folds it; mkobs flame is its CLI.
// The schema check rides trace.ParseEvents.
func FoldedFromJSON(data []byte) (string, error) {
	events, _, err := trace.ParseEvents(data)
	if err != nil {
		return "", err
	}
	return Folded(events), nil
}

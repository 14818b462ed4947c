package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"

	"mklite/internal/stats"
)

// Schema versions the metrics report format and its key namespace. Bump when
// a field is renamed or its meaning changes; mkobs diff refuses to compare
// files with different schemas.
const Schema = "mklite-metrics/v1"

// BucketCount is one non-empty histogram bucket: count samples in [Lo, Hi).
type BucketCount struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistReport is one distribution's export: exact count/sum/min/max, the
// headline percentiles under the shared stats.Rank rule, and the non-empty
// buckets for re-analysis.
type HistReport struct {
	Count int64         `json:"count"`
	Sum   int64         `json:"sum"`
	Min   int64         `json:"min"`
	Max   int64         `json:"max"`
	P50   float64       `json:"p50"`
	P90   float64       `json:"p90"`
	P99   float64       `json:"p99"`
	P999  float64       `json:"p99_9"`
	Bkts  []BucketCount `json:"buckets,omitempty"`
}

// Report is the schema-versioned export of one registry: the shape mkrun
// -metrics-json writes and mkobs reads, renders and diffs. encoding/json
// sorts map keys, so the bytes are deterministic.
type Report struct {
	Schema string                  `json:"schema"`
	Phases map[string]int64        `json:"phases,omitempty"`
	Gauges map[string]int64        `json:"gauges,omitempty"`
	Hists  map[string]HistReport   `json:"histograms,omitempty"`
	Ranked map[string][]HistReport `json:"ranked,omitempty"`
}

func histReport(h *Histogram) HistReport {
	rep := HistReport{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
	}
	h.Buckets(func(lo, hi, count int64) {
		rep.Bkts = append(rep.Bkts, BucketCount{Lo: lo, Hi: hi, Count: count})
	})
	return rep
}

// Report exports the registry. A nil registry exports an empty (but valid)
// report.
func (r *Registry) Report() *Report {
	rep := &Report{Schema: Schema}
	if r == nil {
		return rep
	}
	if len(r.phases) > 0 {
		rep.Phases = maps.Clone(r.phases)
	}
	if len(r.gauges) > 0 {
		rep.Gauges = maps.Clone(r.gauges)
	}
	for name, h := range r.hists {
		if rep.Hists == nil {
			rep.Hists = map[string]HistReport{}
		}
		rep.Hists[name] = histReport(h)
	}
	for name, hs := range r.ranked {
		if rep.Ranked == nil {
			rep.Ranked = map[string][]HistReport{}
		}
		rows := make([]HistReport, len(hs))
		for i, h := range hs {
			rows[i] = histReport(h)
		}
		rep.Ranked[name] = rows
	}
	return rep
}

// WriteJSON writes the schema-versioned report.
func (rep *Report) WriteJSON(w io.Writer) error {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// ReadReport parses a report produced by WriteJSON, checking the schema.
func ReadReport(data []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("metrics: parsing report: %w", err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("metrics: report schema %q, want %q", rep.Schema, Schema)
	}
	return &rep, nil
}

// ns formats a nanosecond quantity for the text tables: microseconds with
// enough digits that sub-microsecond detours stay visible.
func ns(v float64) string { return fmt.Sprintf("%.3f", v/1e3) }

// tailRatio is the tables' distribution-shape column: p99.9 over p50, the
// paper's Linux-vs-LWK noise fingerprint (a near-1 ratio is a tight
// distribution, a large one a heavy tail).
func tailRatio(rep HistReport) string {
	if rep.P50 == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", rep.P999/rep.P50)
}

// histRow adds one table row for rep. The unit follows family, not label:
// durations (the "_ns" namespace) render in microseconds, everything else
// (message counts, page counts) renders raw. Per-rank tables label rows
// with the rank index but still carry their family's unit.
func histRow(tb *stats.Table, label, family string, rep HistReport) {
	val := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	if strings.HasSuffix(family, "_ns") {
		val = ns
	}
	tb.AddRow(label,
		fmt.Sprintf("%d", rep.Count),
		val(float64(rep.Min)), val(rep.P50), val(rep.P90), val(rep.P99),
		val(rep.P999), val(float64(rep.Max)), tailRatio(rep))
}

// unitSuffix is the per-rank section-header unit tag for a family name.
func unitSuffix(family string) string {
	if strings.HasSuffix(family, "_ns") {
		return " (us)"
	}
	return ""
}

// Render formats the report as aligned text tables: the per-phase virtual-
// time breakdown, the latency distributions with their headline percentiles
// (in microseconds), the per-rank families and the gauges.
func (rep *Report) Render() string {
	var b strings.Builder
	if len(rep.Phases) > 0 {
		var total int64
		for _, v := range rep.Phases {
			total += v
		}
		b.WriteString("-- phases (virtual time) --\n")
		tb := stats.NewTable("phase", "seconds", "share")
		for _, name := range slices.Sorted(maps.Keys(rep.Phases)) {
			v := rep.Phases[name]
			share := "-"
			if total > 0 {
				share = fmt.Sprintf("%.1f%%", float64(v)/float64(total)*100)
			}
			tb.AddRow(name, fmt.Sprintf("%.6f", float64(v)/1e9), share)
		}
		tb.AddRow("total", fmt.Sprintf("%.6f", float64(total)/1e9), "100.0%")
		b.WriteString(tb.Render())
	}
	if len(rep.Hists) > 0 {
		b.WriteString("-- distributions (durations in us, counts raw) --\n")
		tb := stats.NewTable("distribution", "count", "min", "p50", "p90", "p99", "p99.9", "max", "p99.9/p50")
		for _, name := range slices.Sorted(maps.Keys(rep.Hists)) {
			histRow(tb, name, name, rep.Hists[name])
		}
		b.WriteString(tb.Render())
	}
	for _, name := range slices.Sorted(maps.Keys(rep.Ranked)) {
		fmt.Fprintf(&b, "-- per-rank: %s%s --\n", name, unitSuffix(name))
		tb := stats.NewTable("rank", "count", "min", "p50", "p90", "p99", "p99.9", "max", "p99.9/p50")
		for i, row := range rep.Ranked[name] {
			histRow(tb, fmt.Sprintf("%d", i), name, row)
		}
		b.WriteString(tb.Render())
	}
	if len(rep.Gauges) > 0 {
		b.WriteString("-- gauges --\n")
		tb := stats.NewTable("gauge", "value")
		for _, name := range slices.Sorted(maps.Keys(rep.Gauges)) {
			tb.AddRow(name, fmt.Sprintf("%d", rep.Gauges[name]))
		}
		b.WriteString(tb.Render())
	}
	if b.Len() == 0 {
		return "(empty metrics report)\n"
	}
	return b.String()
}

// Diff renders the comparison of two reports: phases and gauges whose value
// moved, distributions whose export differs in any field (the row shows the
// count and tail percentiles), and per-rank distributions that differ. Rows
// are sorted by name and identical entries are omitted, so two equal
// reports diff to "".
func Diff(oldR, newR *Report) string {
	var b strings.Builder
	section := func(title string, tb *stats.Table) {
		if tb != nil {
			b.WriteString("-- " + title + " --\n")
			b.WriteString(tb.Render())
		}
	}
	var ptb *stats.Table
	for _, k := range unionKeys(oldR.Phases, newR.Phases) {
		o, n := oldR.Phases[k], newR.Phases[k]
		if o == n {
			continue
		}
		if ptb == nil {
			ptb = stats.NewTable("phase", "old s", "new s", "delta")
		}
		delta := "-"
		if o != 0 {
			delta = fmt.Sprintf("%+.1f%%", (float64(n)-float64(o))/float64(o)*100)
		}
		ptb.AddRow(k, fmt.Sprintf("%.6f", float64(o)/1e9), fmt.Sprintf("%.6f", float64(n)/1e9), delta)
	}
	section("phase deltas", ptb)
	var gtb *stats.Table
	for _, k := range unionKeys(oldR.Gauges, newR.Gauges) {
		o, n := oldR.Gauges[k], newR.Gauges[k]
		if o == n {
			continue
		}
		if gtb == nil {
			gtb = stats.NewTable("gauge", "old", "new")
		}
		gtb.AddRow(k, fmt.Sprintf("%d", o), fmt.Sprintf("%d", n))
	}
	section("gauge deltas", gtb)
	var htb *stats.Table
	for _, k := range unionKeys(oldR.Hists, newR.Hists) {
		o, n := oldR.Hists[k], newR.Hists[k]
		if reflect.DeepEqual(o, n) {
			continue
		}
		if htb == nil {
			htb = stats.NewTable("distribution", "count", "p50 (us)", "p99.9 (us)", "max (us)")
		}
		htb.AddRow(k,
			fmt.Sprintf("%d -> %d", o.Count, n.Count),
			fmt.Sprintf("%s -> %s", ns(o.P50), ns(n.P50)),
			fmt.Sprintf("%s -> %s", ns(o.P999), ns(n.P999)),
			fmt.Sprintf("%s -> %s", ns(float64(o.Max)), ns(float64(n.Max))))
	}
	section("distribution deltas", htb)
	var rtb *stats.Table
	for _, k := range unionKeys(oldR.Ranked, newR.Ranked) {
		o, n := oldR.Ranked[k], newR.Ranked[k]
		if reflect.DeepEqual(o, n) {
			continue
		}
		if rtb == nil {
			rtb = stats.NewTable("per-rank distribution", "ranks")
		}
		rtb.AddRow(k, fmt.Sprintf("%d -> %d", len(o), len(n)))
	}
	section("per-rank distributions that differ", rtb)
	return b.String()
}

// unionKeys returns the keys of a and b, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	keys := append(slices.Sorted(maps.Keys(a)), slices.Sorted(maps.Keys(b))...)
	slices.Sort(keys)
	return slices.Compact(keys)
}

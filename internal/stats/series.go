package stats

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Point is one entry of a scaling series: a node count with the summary of
// repeated measurements at that scale.
type Point struct {
	Nodes int
	Summary
}

// Series is a named scaling curve (one line on a paper figure), e.g.
// "McKernel" on Figure 5b.
type Series struct {
	Name   string
	Unit   string // unit of the Y values, e.g. "Mflops", "zones/s"
	Points []Point
}

// Add appends a measurement summary at the given node count, keeping points
// ordered by node count.
func (s *Series) Add(nodes int, sum Summary) {
	s.Points = append(s.Points, Point{Nodes: nodes, Summary: sum})
	sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].Nodes < s.Points[j].Nodes })
}

// At returns the point at the given node count and whether it exists.
func (s *Series) At(nodes int) (Point, bool) {
	for _, p := range s.Points {
		if p.Nodes == nodes {
			return p, true
		}
	}
	return Point{}, false
}

// NodeCounts returns the sorted node counts present in the series.
func (s *Series) NodeCounts() []int {
	out := make([]int, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Nodes
	}
	return out
}

// RelativeTo returns a new series whose medians (and min/max) are expressed
// as ratios to the baseline's median at the same node count. Node counts
// absent from the baseline are dropped. This is exactly the normalisation of
// the paper's Figure 4 and Figure 5a.
func (s *Series) RelativeTo(base *Series) *Series {
	out := &Series{Name: s.Name + "/" + base.Name, Unit: "x"}
	for _, p := range s.Points {
		bp, ok := base.At(p.Nodes)
		if !ok || bp.Median == 0 {
			continue
		}
		out.Points = append(out.Points, Point{
			Nodes: p.Nodes,
			Summary: Summary{
				N:      p.N,
				Median: p.Median / bp.Median,
				Min:    p.Min / bp.Median,
				Max:    p.Max / bp.Median,
				Mean:   p.Mean / bp.Median,
			},
		})
	}
	return out
}

// Figure is a set of series sharing an X axis, i.e. one plot of the paper.
type Figure struct {
	ID     string // e.g. "fig4", "fig5a"
	Title  string
	Series []*Series

	// Counters carries the merged mechanism counters of the runs behind
	// the figure (counter provenance; set when the experiment ran with
	// counters enabled). Render deliberately ignores it so figure bytes
	// — and therefore the determinism digests — are identical with and
	// without counting.
	Counters map[string]int64

	// MetricsText carries the rendered metrics report (per-phase time
	// breakdown, latency percentile tables) of the runs behind the figure
	// when the experiment ran with metrics enabled. Like Counters it is
	// provenance, not plot data: Render ignores it, so figure bytes — and
	// the determinism digests — are identical with and without metrics.
	// It is a rendered string rather than a registry to keep stats free of
	// a metrics dependency (metrics imports stats for its quantile rule).
	MetricsText string
}

// Get returns the series with the given name, or nil.
func (f *Figure) Get(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Render formats the figure as an aligned text table: one row per node
// count, one column group per series (median [min..max]).
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) == 0 {
		b.WriteString("(no series)\n")
		return b.String()
	}
	// Union of node counts across series.
	nodeSet := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			nodeSet[p.Nodes] = true
		}
	}
	nodes := slices.Sorted(maps.Keys(nodeSet))

	tb := NewTable(append([]string{"nodes"}, seriesHeaders(f.Series)...)...)
	for _, n := range nodes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range f.Series {
			if p, ok := s.At(n); ok {
				row = append(row, fmt.Sprintf("%.4g", p.Median),
					fmt.Sprintf("[%.4g..%.4g]", p.Min, p.Max))
			} else {
				row = append(row, "-", "-")
			}
		}
		tb.AddRow(row...)
	}
	b.WriteString(tb.Render())
	return b.String()
}

func seriesHeaders(ss []*Series) []string {
	var hs []string
	for _, s := range ss {
		unit := s.Unit
		if unit == "" {
			unit = "value"
		}
		hs = append(hs, fmt.Sprintf("%s (%s)", s.Name, unit), "range")
	}
	return hs
}

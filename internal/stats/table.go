package stats

import (
	"fmt"
	"strings"
)

// Table is a minimal fixed-width text table used by the experiment harness
// to print paper tables and figure data.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row. Short rows are padded with empty cells; long rows
// panic, since a mismatched row is always a caller bug.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		panic(fmt.Sprintf("stats: row has %d cells, table has %d columns", len(cells), len(t.headers)))
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values.
func (t *Table) AddRowf(format string, cells ...any) {
	strs := make([]string, len(cells))
	for i, c := range cells {
		strs[i] = fmt.Sprintf(strings.Split(format, "|")[i], c)
	}
	t.AddRow(strs...)
}

// Render returns the table as aligned text with a header separator.
func (t *Table) Render() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mklite/internal/stats"
)

// headers is each artifact's section header: the first line it prints.
var headers = map[string]string{
	"fig4":       "==== Figure 4: relative median performance vs Linux ====",
	"fig5a":      "==== Figure 5a: CCS-QCD, % of Linux median ====",
	"fig5b":      "==== Figure 5b: MiniFE scaling (Mflops) ====",
	"fig6a":      "==== Figure 6a: Lulesh 2.0 scaling (zones/s) ====",
	"fig6b":      "==== Figure 6b: LAMMPS scaling (timesteps/s) ====",
	"table1":     "==== Table I: Lulesh in DDR4 with/without brk optimizations ====",
	"ltp":        "==== Section III-D: LTP syscall conformance ====",
	"brktrace":   "==== Section IV: Lulesh brk trace ====",
	"proxyopts":  "==== Section IV: McKernel proxy options (premap + disable-sched-yield, 16 nodes) ====",
	"ccsqcd-ddr": "==== Section IV: CCS-QCD on McKernel, DDR4-only vs MCDRAM spill ====",
	"corespec":   "==== Section III-A: core specialisation (Lulesh, 1 node) ====",
	"quadrant":   "==== Section III-B: clustering-mode trade-off (CCS-QCD, 64 nodes) ====",
	"schedsweep": "==== Scheduler sweep: noise-gap % by policy x kernel x nodes ====",
	"resilience": "==== Resilience: one straggler poisons the allreduce (MiniFE) ====",
	"facility":   "==== Facility: kernel-selection policies at datacenter scale ====",
	"ablations":  "==== Design-space ablations (section II claims) ====",
}

// TestEveryArtifactRenders runs each table row alone and checks its section
// header and the blank line that closes the section.
func TestEveryArtifactRenders(t *testing.T) {
	if len(headers) != len(artifacts) {
		t.Fatalf("%d headers for %d artifacts", len(headers), len(artifacts))
	}
	for _, a := range artifacts {
		t.Run(a.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-quick", "-reps", "1", "-only", a.name}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
			}
			out := stdout.String()
			if first, _, _ := strings.Cut(out, "\n"); first != headers[a.name] {
				t.Errorf("header %q, want %q", first, headers[a.name])
			}
			if !strings.HasSuffix(out, "\n\n") {
				t.Errorf("section does not end in a blank line:\n%s", out)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown artifact", []string{"-only", "nope"}, `unknown artifact "nope"`},
		{"unknown artifact in list", []string{"-only", "fig5b, nope"}, `unknown artifact "nope"`},
		{"json without schedsweep", []string{"-only", "fig5b", "-json", filepath.Join(dir, "x.json")},
			"-only does not select schedsweep"},
		{"positional argument", []string{"fig5b"}, "unexpected arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error printed results:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.want) || !strings.Contains(stderr.String(), artifactList()) {
				t.Errorf("stderr lacks %q or the artifact list:\n%s", tc.want, stderr.String())
			}
		})
	}
	if _, err := os.Stat(filepath.Join(dir, "x.json")); !os.IsNotExist(err) {
		t.Errorf("a usage error wrote the -json file (stat: %v)", err)
	}
}

// TestTableMatchesDocs holds the package comment and EXPERIMENTS.md to the
// artifact table: the comment lists every row in print order, and every id
// is a section of EXPERIMENTS.md.
func TestTableMatchesDocs(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	const lead = "Artifacts, in print order, with their EXPERIMENTS.md ids: "
	doc := strings.Join(strings.Fields(f.Doc.Text()), " ")
	_, list, ok := strings.Cut(doc, lead)
	if !ok || !strings.HasPrefix(list, artifactList()+".") {
		t.Errorf("package comment does not list the table; want %q", lead+artifactList()+".")
	}

	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	ids, names := map[string]bool{}, map[string]bool{}
	for _, a := range artifacts {
		if ids[a.id] || names[a.name] {
			t.Errorf("duplicate row %s/%s", a.id, a.name)
		}
		ids[a.id], names[a.name] = true, true
		if !bytes.Contains(md, []byte("\n## "+a.id+" — ")) {
			t.Errorf("EXPERIMENTS.md has no section %s (%s)", a.id, a.name)
		}
	}
}

// TestJSONSchema pins the -json encoding: these are the exact bytes the
// earlier root-package figure mirror (Point as Nodes, Median, Min, Max)
// marshalled for the same data, so stats.Figure must match them field for
// field, nil and non-empty Counters and empty MetricsText included.
func TestJSONSchema(t *testing.T) {
	pt := func(nodes int, median, lo, hi float64) stats.Point {
		// N, Mean and Stddev are set to show they stay out of the file.
		return stats.Point{Nodes: nodes, Summary: stats.Summary{N: 5, Median: median, Min: lo, Max: hi, Mean: 9, Stddev: 9}}
	}
	figs := []*stats.Figure{
		{ID: "schedsweep-minife", Title: "MiniFE: noise gap", Series: []*stats.Series{
			{Name: "Linux/cfs", Unit: "noise-gap %", Points: []stats.Point{pt(1, 1.5, 1, 2), pt(2048, 0.125, 0, 3e-7)}},
			{Name: "mOS/gang", Points: []stats.Point{pt(64, 12345.678, -1, 1e21)}},
		}},
		{ID: "schedsweep-lammps", Title: "LAMMPS", Series: []*stats.Series{
			{Name: "McKernel/rr", Unit: "x", Points: []stats.Point{pt(8, 2, 2, 2)}},
		}, Counters: map[string]int64{"noise.src.tick_ns": 42, "mpi.collectives": 7}, MetricsText: "phase  ns\n"},
	}
	got, err := marshalFigures(figs)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantJSON {
		t.Fatalf("-json bytes changed:\n%s\nwant:\n%s", got, wantJSON)
	}
}

const wantJSON = `[
  {
    "ID": "schedsweep-minife",
    "Title": "MiniFE: noise gap",
    "Series": [
      {
        "Name": "Linux/cfs",
        "Unit": "noise-gap %",
        "Points": [
          {
            "Nodes": 1,
            "Median": 1.5,
            "Min": 1,
            "Max": 2
          },
          {
            "Nodes": 2048,
            "Median": 0.125,
            "Min": 0,
            "Max": 3e-7
          }
        ]
      },
      {
        "Name": "mOS/gang",
        "Unit": "",
        "Points": [
          {
            "Nodes": 64,
            "Median": 12345.678,
            "Min": -1,
            "Max": 1e+21
          }
        ]
      }
    ],
    "Counters": null,
    "MetricsText": ""
  },
  {
    "ID": "schedsweep-lammps",
    "Title": "LAMMPS",
    "Series": [
      {
        "Name": "McKernel/rr",
        "Unit": "x",
        "Points": [
          {
            "Nodes": 8,
            "Median": 2,
            "Min": 2,
            "Max": 2
          }
        ]
      }
    ],
    "Counters": {
      "mpi.collectives": 7,
      "noise.src.tick_ns": 42
    },
    "MetricsText": "phase  ns\n"
  }
]
`

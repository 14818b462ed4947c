package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mklite"
	"mklite/internal/fleet"
	"mklite/internal/metrics"
	"mklite/internal/obs"
	"mklite/internal/trace"
)

// artifacts records one small run and one small facility into dir, as mkrun
// and mkfleet write them, and returns the paths by name.
func artifacts(t *testing.T, dir string) map[string]string {
	t.Helper()
	res, err := mklite.Run("minife", mklite.McKernel, 16, 1, &mklite.Options{
		Observe: mklite.Observe{Counters: true, Events: true, Metrics: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrs := trace.NewCounters()
	ctrs.MergeMap(res.Counters)
	var cbuf bytes.Buffer
	if err := ctrs.WriteJSON(&cbuf); err != nil {
		t.Fatal(err)
	}

	cfg := fleet.Config{Nodes: 16, Jobs: 10, Seed: 1, Backfill: true, Counters: true}
	o := &obs.Options{Timeline: obs.NewTimeline(cfg.Nodes, 1, 0), Decisions: obs.NewDecisionLog()}
	cfg.Observe = o
	fres, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := o.Decisions.JSON()
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.MarshalIndent(fres, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	files := map[string][]byte{
		"trace":     res.TraceJSON,
		"counters":  cbuf.Bytes(),
		"metrics":   res.MetricsJSON,
		"timeline":  o.Timeline.JSON(),
		"decisions": dl,
		"result":    rj,
		"unknown":   []byte(`{"schema":"mklite-bogus/v1"}`),
	}
	paths := map[string]string{}
	for name, data := range files {
		paths[name] = write(t, dir, name+".json", data)
	}
	return paths
}

func write(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// perturbed writes a copy of the named artifact with one value changed,
// through the schema's own reader and writer.
func perturbed(t *testing.T, dir string, paths map[string]string, name string) string {
	t.Helper()
	data, err := os.ReadFile(paths[name])
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	switch name {
	case "counters":
		var m map[string]int64
		if m, err = trace.ReadCounters(data); err == nil {
			m["fabric.messages"]++
			c := trace.NewCounters()
			c.MergeMap(m)
			err = c.WriteJSON(&out)
		}
	case "metrics":
		var rep *metrics.Report
		if rep, err = metrics.ReadReport(data); err == nil {
			rep.Phases["compute"]++
			err = rep.WriteJSON(&out)
		}
	case "decisions":
		var ds []obs.Decision
		if ds, err = obs.ReadDecisions(data); err == nil {
			ds[0].Kernel += "-perturbed"
			l := obs.NewDecisionLog()
			for _, d := range ds {
				l.Record(d)
			}
			var b []byte
			if b, err = l.JSON(); err == nil {
				out.Write(b)
			}
		}
	}
	if err != nil || out.Len() == 0 {
		t.Fatalf("cannot perturb %s: %v", name, err)
	}
	return write(t, dir, "perturbed-"+name+".json", out.Bytes())
}

func mkobs(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestSubcommands(t *testing.T) {
	dir := t.TempDir()
	p := artifacts(t, dir)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no subcommand", nil, 2},
		{"unknown subcommand", []string{"run", "-nodes", "4"}, 2},
		{"validate trace", []string{"validate", p["trace"]}, 0},
		{"validate counters", []string{"validate", p["counters"]}, 0},
		{"validate metrics", []string{"validate", p["metrics"]}, 0},
		{"validate timeline", []string{"validate", p["timeline"]}, 0},
		{"validate decisions", []string{"validate", p["decisions"]}, 0},
		{"validate unknown schema", []string{"validate", p["unknown"]}, 1},
		{"validate schemaless result", []string{"validate", p["result"]}, 1},
		{"validate missing file", []string{"validate", filepath.Join(dir, "nope.json")}, 1},
		{"validate two files", []string{"validate", p["trace"], p["trace"]}, 2},
		{"diff identical counters", []string{"diff", p["counters"], p["counters"]}, 0},
		{"diff identical metrics", []string{"diff", p["metrics"], p["metrics"]}, 0},
		{"diff identical decisions", []string{"diff", p["decisions"], p["decisions"]}, 0},
		{"diff perturbed counters", []string{"diff", p["counters"], perturbed(t, dir, p, "counters")}, 1},
		{"diff perturbed metrics", []string{"diff", p["metrics"], perturbed(t, dir, p, "metrics")}, 1},
		{"diff perturbed decisions", []string{"diff", p["decisions"], perturbed(t, dir, p, "decisions")}, 1},
		{"diff mixed schemas", []string{"diff", p["counters"], p["metrics"]}, 2},
		{"diff traces", []string{"diff", p["trace"], p["trace"]}, 2},
		{"diff one file", []string{"diff", p["counters"]}, 2},
		{"report counters", []string{"report", p["counters"]}, 2},
		{"report decisions", []string{"report", p["decisions"]}, 2},
		{"flame timeline", []string{"flame", p["timeline"]}, 0},
		{"flame metrics", []string{"flame", p["metrics"]}, 2},
		{"check pass", []string{"check", "-slo", "jobs>=10;degraded_jobs<=0", p["result"]}, 0},
		{"check fail", []string{"check", "-slo", "jobs>=11", p["result"]}, 1},
		{"check empty object", []string{"check", "-slo", "degraded_jobs<=0", write(t, dir, "empty.json", []byte(`{}`))}, 1},
		{"check metrics report", []string{"check", "-slo", "degraded_jobs<=0", p["metrics"]}, 1},
		{"check without slo", []string{"check", p["result"]}, 2},
		{"check bad slo", []string{"check", "-slo", "jobs", p["result"]}, 2},
		{"check unknown flag", []string{"check", "-nodes", "64", "-slo", "jobs>=1"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code, out, errOut := mkobs(tc.args...); code != tc.code {
				t.Fatalf("mkobs %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
					strings.Join(tc.args, " "), code, tc.code, out, errOut)
			}
		})
	}
}

// TestFlameTakesOneFile: flame folds exactly the trace it is given, and
// flags or extra arguments after the file are a usage error rather than
// silently ignored in favour of a fresh run.
func TestFlameTakesOneFile(t *testing.T) {
	dir := t.TempDir()
	p := artifacts(t, dir)
	data, err := os.ReadFile(p["trace"])
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := trace.ParseEvents(data)
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.Folded(events)
	code, out, errOut := mkobs("flame", p["trace"])
	if code != 0 || out != want || want == "" {
		t.Fatalf("flame: exit %d, stderr %q\ngot:\n%s\nwant:\n%s", code, errOut, out, want)
	}
	for _, args := range [][]string{
		{"flame", p["trace"], "-o", filepath.Join(dir, "out.folded")},
		{"flame", "-app", "minife", p["trace"]},
		{"flame"},
	} {
		if code, out, _ := mkobs(args...); code != 2 || out != "" {
			t.Fatalf("mkobs %s: exit %d with stdout %q, want exit 2 and no output", strings.Join(args, " "), code, out)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out.folded")); !os.IsNotExist(err) {
		t.Fatalf("flame wrote a file it was not asked for: %v", err)
	}
}

// TestReportRendersMetrics: report prints exactly what Report.Render does.
func TestReportRendersMetrics(t *testing.T) {
	dir := t.TempDir()
	p := artifacts(t, dir)
	data, err := os.ReadFile(p["metrics"])
	if err != nil {
		t.Fatal(err)
	}
	rep, err := metrics.ReadReport(data)
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := mkobs("report", p["metrics"])
	if code != 0 || out != rep.Render() {
		t.Fatalf("report: exit %d, stderr %q\ngot:\n%s\nwant:\n%s", code, errOut, out, rep.Render())
	}
}

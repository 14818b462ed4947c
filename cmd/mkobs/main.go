// Command mkobs inspects mklite's observability artifacts. It runs no
// simulation: mkrun records one run's trace, counters and metrics
// (-trace-json, -counters-json, -metrics-json) and mkfleet one facility's
// timeline, decision log and result (-obs-timeline, -obs-decisions, -json).
// mkobs reads each file's schema id — otherData.schema of a trace or
// timeline, the top-level schema of the others — and dispatches on it
// (see docs/OBSERVABILITY.md).
//
// Usage:
//
//	mkobs validate FILE              any mklite-*/v1 artifact
//	mkobs diff A B                   two counter, metrics or decision files of one schema
//	mkobs report FILE                render a metrics report
//	mkobs flame FILE                 fold a trace into flame-graph stacks on stdout
//	mkobs check -slo SPEC RESULT     judge a saved mkfleet -json result
//
// Exit status: 0 on success, 1 on an invalid artifact, a difference or a
// failed SLO, 2 on a usage error (wrong arguments, mixed schemas, or a
// schema the subcommand does not handle).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mklite/internal/fleet"
	"mklite/internal/metrics"
	"mklite/internal/obs"
	"mklite/internal/trace"
)

const usage = `usage:
  mkobs validate FILE
  mkobs diff A B
  mkobs report FILE
  mkobs flame FILE
  mkobs check -slo SPEC RESULT
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError is a command line the subcommand cannot act on (exit 2).
type usageError string

func (e usageError) Error() string { return string(e) }

// errFailed reports a difference or a failed SLO already printed to stdout
// (exit 1).
var errFailed = errors.New("failed")

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "validate":
		err = validate(rest, stdout)
	case "diff":
		err = diff(rest, stdout)
	case "report":
		err = report(rest, stdout)
	case "flame":
		err = flame(rest, stdout)
	case "check":
		err = check(rest, stdout)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		err = usageError(fmt.Sprintf("unknown subcommand %q", cmd))
	}
	var uerr usageError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errFailed):
		return 1
	case errors.As(err, &uerr):
		fmt.Fprintf(stderr, "mkobs: %v\n%s", err, usage)
		return 2
	}
	fmt.Fprintln(stderr, "mkobs:", err)
	return 1
}

// artifact is one input file and the schema id it declares.
type artifact struct {
	path, schema string
	data         []byte
}

// load reads the files a subcommand takes — exactly n of them — and sniffs
// each one's schema id. A file with no schema id, or one mkobs does not
// know, is an invalid artifact.
func load(cmd string, args []string, n int) ([]artifact, error) {
	if len(args) != n {
		return nil, usageError(fmt.Sprintf("%s takes %d file(s), got %d argument(s): %s",
			cmd, n, len(args), strings.Join(args, " ")))
	}
	arts := make([]artifact, n)
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var head struct {
			Schema    string `json:"schema"`
			OtherData struct {
				Schema string `json:"schema"`
			} `json:"otherData"`
		}
		if err := json.Unmarshal(data, &head); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		schema := head.Schema
		if schema == "" {
			schema = head.OtherData.Schema
		}
		switch schema {
		case trace.EventsSchema, trace.CountersSchema, metrics.Schema, obs.DecisionsSchema:
		default:
			return nil, fmt.Errorf("%s: unknown schema %q (want %s, %s, %s or %s)", path, schema,
				trace.EventsSchema, trace.CountersSchema, metrics.Schema, obs.DecisionsSchema)
		}
		arts[i] = artifact{path: path, schema: schema, data: data}
	}
	return arts, nil
}

// unsupported is the usage error for a schema cmd does not handle.
func unsupported(cmd string, a artifact) error {
	return usageError(fmt.Sprintf("%s does not handle %s (%s)", cmd, a.schema, a.path))
}

// read parses a with its schema's reader, naming the file on error.
func read[T any](a artifact, parse func([]byte) (T, error)) (T, error) {
	v, err := parse(a.data)
	if err != nil {
		err = fmt.Errorf("%s: %w", a.path, err)
	}
	return v, err
}

func validate(args []string, stdout io.Writer) error {
	arts, err := load("validate", args, 1)
	if err != nil {
		return err
	}
	a := arts[0]
	switch a.schema {
	case trace.EventsSchema:
		err = trace.Validate(a.data)
	case trace.CountersSchema:
		_, err = trace.ReadCounters(a.data)
	case metrics.Schema:
		_, err = metrics.ReadReport(a.data)
	case obs.DecisionsSchema:
		_, err = obs.ReadDecisions(a.data)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", a.path, err)
	}
	fmt.Fprintf(stdout, "%s: valid %s\n", a.path, a.schema)
	return nil
}

// diff prints one row per difference and fails on any, for every schema it
// compares.
func diff(args []string, stdout io.Writer) error {
	arts, err := load("diff", args, 2)
	if err != nil {
		return err
	}
	a, b := arts[0], arts[1]
	if a.schema != b.schema {
		return usageError(fmt.Sprintf("diff needs two files of one schema: %s is %s, %s is %s",
			a.path, a.schema, b.path, b.schema))
	}
	var rows []string
	switch a.schema {
	case trace.CountersSchema:
		ca, cb, err := readPair(a, b, trace.ReadCounters)
		if err != nil {
			return err
		}
		for _, r := range trace.DiffCounters(ca, cb) {
			rows = append(rows, fmt.Sprintf("%-28s %14d %14d %+14d", r.Name, r.Old, r.New, r.Delta()))
		}
		if rows != nil {
			rows = append([]string{fmt.Sprintf("%-28s %14s %14s %14s", "counter", "old", "new", "delta")}, rows...)
		}
	case metrics.Schema:
		ra, rb, err := readPair(a, b, metrics.ReadReport)
		if err != nil {
			return err
		}
		if out := metrics.Diff(ra, rb); out != "" {
			rows = []string{strings.TrimSuffix(out, "\n")}
		}
	case obs.DecisionsSchema:
		da, db, err := readPair(a, b, obs.ReadDecisions)
		if err != nil {
			return err
		}
		rows = obs.DiffDecisions(da, db)
	default:
		return unsupported("diff", a)
	}
	if len(rows) == 0 {
		fmt.Fprintf(stdout, "identical %s files\n", a.schema)
		return nil
	}
	for _, row := range rows {
		fmt.Fprintln(stdout, row)
	}
	return errFailed
}

func readPair[T any](a, b artifact, parse func([]byte) (T, error)) (T, T, error) {
	va, err := read(a, parse)
	if err != nil {
		return va, va, err
	}
	vb, err := read(b, parse)
	return va, vb, err
}

func report(args []string, stdout io.Writer) error {
	arts, err := load("report", args, 1)
	if err != nil {
		return err
	}
	a := arts[0]
	if a.schema != metrics.Schema {
		return unsupported("report", a)
	}
	rep, err := read(a, metrics.ReadReport)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.Render())
	return nil
}

// flame writes the folded stacks of a trace (or facility timeline) to
// stdout, for flamegraph.pl or speedscope.
func flame(args []string, stdout io.Writer) error {
	arts, err := load("flame", args, 1)
	if err != nil {
		return err
	}
	a := arts[0]
	if a.schema != trace.EventsSchema {
		return unsupported("flame", a)
	}
	folded, err := read(a, metrics.FoldedFromJSON)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, folded)
	return err
}

// check judges a saved facility result — the one artifact without a schema
// id — with the spec's rules, through the same metric map the in-run
// watchdog uses (Result.SLOValues), regardless of any report stored in it.
func check(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec := fs.String("slo", "", "SLO spec to enforce, e.g. 'wait_p99_sec<=2;utilization_pct>=60' (required)")
	if err := fs.Parse(args); err != nil {
		return usageError("check: " + err.Error())
	}
	if *spec == "" || fs.NArg() != 1 {
		return usageError("check needs -slo SPEC and exactly one mkfleet -json result")
	}
	slo, err := obs.ParseSLO(*spec)
	if err != nil {
		return usageError(err.Error())
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := fleet.ReadResult(data)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	rep, err := slo.Eval(res.SLOValues())
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "  slo:")
	for _, r := range rep.Results {
		verdict := "pass"
		if !r.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(stdout, "    %-4s %s%s%g (observed %g)\n", verdict, r.Metric, r.Op, r.Threshold, r.Value)
	}
	if !rep.Passed {
		fmt.Fprintln(stdout, "  slo: FAIL")
		return errFailed
	}
	fmt.Fprintln(stdout, "  slo: PASS")
	return nil
}

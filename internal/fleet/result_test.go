package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mklite/internal/obs"
)

// smallResultJSON runs a small observed facility with every optional
// result field populated and encodes it as mkfleet -json does.
func smallResultJSON(tb testing.TB) []byte {
	tb.Helper()
	cfg := Config{Nodes: 16, Jobs: 6, Seed: 3, Backfill: true, Share: 2, Counters: true, PerJob: true}
	cfg.Observe = &obs.Options{JobCounters: true}
	var err error
	if cfg.SLO, err = obs.ParseSLO("utilization_pct>=1;degraded_jobs<=0"); err != nil {
		tb.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadResult: mkfleet -json output reads back and re-encodes to the same
// bytes; documents that are not a facility result are errors.
func TestReadResult(t *testing.T) {
	data := smallResultJSON(t)
	res, err := ReadResult(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("round trip changed the result:\n  in:  %s\n  out: %s", data, buf.Bytes())
	}
	for _, bad := range []string{
		`{}`,
		`null`,
		`{"schema":"mklite-metrics/v1","phases":{"compute":1}}`,
		`{"policy":"heuristic","facility_nodes":4,"jobs":2,"surprise":1}`,
		`{"policy":"heuristic","facility_nodes":0,"jobs":2}`,
		`{"policy":"heuristic","facility_nodes":4,"jobs":0}`,
		`{"policy":"heuristic","facility_nodes":4,"jobs":2} {}`,
		`[` + strings.TrimSpace(string(data)) + `]`,
	} {
		if res, err := ReadResult([]byte(bad)); err == nil || res != nil {
			t.Errorf("ReadResult(%s) = %v, %v; want an error", bad, res, err)
		}
	}
}

// FuzzReadResult feeds arbitrary bytes to ReadResult, the reader behind
// mkobs check. It may not panic, it returns a result exactly when it returns
// no error (never a zero-valued facility), and an accepted result written
// back through json.Marshal reads back and marshals to the same bytes.
func FuzzReadResult(f *testing.F) {
	f.Add(smallResultJSON(f))
	f.Add([]byte(`{"policy":"heuristic","facility_nodes":4,"jobs":2}`))
	f.Add([]byte(`{"facility_nodes":4,"jobs":2,"kernel_jobs":{},"counters":{},"per_job":[],"slo":{"results":null,"passed":true}}`))
	f.Add([]byte(`{"facility_nodes":4,"jobs":2,"per_job":[{"id":1,"surprise":true}]}`))
	f.Add([]byte(`{"facility_nodes":4,"jobs":2,"wait_p99_sec":1e400}`))
	f.Add([]byte(`{"facility_nodes":4,"jobs":2}x`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadResult(data)
		if err != nil {
			if res != nil {
				t.Fatalf("ReadResult returned a result with error %v", err)
			}
			return
		}
		if res == nil || res.FacilityNodes < 1 || res.Jobs < 1 {
			t.Fatalf("ReadResult accepted %+v", res)
		}
		first, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ReadResult(first)
		if err != nil {
			t.Fatalf("marshalled result does not read: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the result:\n  in:  %s\n  out: %s", first, second)
		}
	})
}

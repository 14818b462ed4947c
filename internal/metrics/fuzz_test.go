package metrics

import (
	"bytes"
	"testing"
)

// FuzzReadReport feeds arbitrary bytes to ReadReport. It may not panic, it
// returns a report exactly when it returns no error, and an accepted report
// written back through WriteJSON reads back and writes the same bytes.
func FuzzReadReport(f *testing.F) {
	r := NewRegistry()
	r.AddPhase("compute", 600)
	r.Observe("noise.detour_ns", 1500)
	r.Observe("noise.detour_ns", 90_000)
	var buf bytes.Buffer
	if err := r.Report().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"mklite-metrics/v1"}`))
	f.Add([]byte(`{"schema":"mklite-metrics/v1","phases":{},"gauges":{"g":-1},"ranked":{"r":[{"count":1,"p99_9":0.5}]}}`))
	f.Add([]byte(`{"schema":"mklite-metrics/v1","histograms":{"h":{"count":1.5}}}`))
	f.Add([]byte(`{"schema":"mklite-metrics/v0"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadReport(data)
		if err != nil {
			if rep != nil {
				t.Fatalf("ReadReport returned a report with error %v", err)
			}
			return
		}
		if rep == nil || rep.Schema != Schema {
			t.Fatalf("ReadReport returned %+v and no error", rep)
		}
		var first bytes.Buffer
		if err := rep.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ReadReport(first.Bytes())
		if err != nil {
			t.Fatalf("written back report does not read: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the report:\n  in:  %s\n  out: %s", first.Bytes(), second.Bytes())
		}
	})
}

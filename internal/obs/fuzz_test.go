package obs

import "testing"

// FuzzReadDecisions feeds arbitrary bytes to ReadDecisions. It may not
// panic, it returns a log exactly when it returns no error, an accepted log
// diffs empty against itself, and written back through DecisionLog.JSON it
// reads back with no differences.
func FuzzReadDecisions(f *testing.F) {
	l := NewDecisionLog()
	l.Record(Decision{Job: 0, Kind: KindFIFO, Kernel: "mos", Nodes: []int{0, 1}})
	l.Record(Decision{
		Job: 2, TimeNs: 50, Kind: KindBackfill, Kernel: "linux", Nodes: []int{3}, Cotenancy: 2,
		Backfill: &BackfillEvidence{
			HeadJob: 1, HeadStartNs: 200,
			Reservations: []Reservation{{Job: 1, StartNs: 200, WallNs: 1000, Slots: 4}},
		},
	})
	out, err := l.JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(out)
	f.Add([]byte(`{"schema":"mklite-decisions/v1","decisions":[]}`))
	f.Add([]byte(`{"schema":"mklite-decisions/v1"}`))
	f.Add([]byte(`{"schema":"mklite-decisions/v1","decisions":[null,{"nodes":null,"backfill":{}}]}`))
	f.Add([]byte(`{"schema":"mklite-decisions/v1","decisions":[{"job":1.5}]}`))
	f.Add([]byte(`{"schema":"bogus/v9","decisions":[]}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadDecisions(data)
		if err != nil {
			if ds != nil {
				t.Fatalf("ReadDecisions returned %d decisions with error %v", len(ds), err)
			}
			return
		}
		if ds == nil {
			t.Fatal("ReadDecisions returned neither decisions nor an error")
		}
		if rows := DiffDecisions(ds, ds); len(rows) != 0 {
			t.Fatalf("a log differs from itself: %v", rows)
		}
		l := NewDecisionLog()
		for _, d := range ds {
			l.Record(d)
		}
		out, err := l.JSON()
		if err != nil {
			t.Fatal(err)
		}
		again, err := ReadDecisions(out)
		if err != nil {
			t.Fatalf("written back log does not read: %v\n%s", err, out)
		}
		if rows := DiffDecisions(ds, again); len(rows) != 0 {
			t.Fatalf("round trip changed the log: %v", rows)
		}
	})
}

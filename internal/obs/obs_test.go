package obs

import (
	"bytes"
	"strings"
	"testing"

	"mklite/internal/trace"
)

func TestTimelineSpansBalanceAndValidate(t *testing.T) {
	tl := NewTimeline(4, 2, 0)
	tl.Sample(0, 3, 0)
	tl.JobStart(10, 0, "job 0 a/linux", []int{0, 1}, map[string]int64{"nodes": 2})
	tl.JobStart(20, 1, "job 1 b/mos", []int{1, 2}, nil)
	tl.Sample(20, 1, 3)
	tl.JobEnd(50, 0)
	tl.JobEnd(70, 1)
	tl.Sample(70, 0, 0)
	if got := tl.Open(); got != 0 {
		t.Fatalf("Open() = %d after all jobs ended, want 0", got)
	}
	out := tl.JSON()
	if err := trace.Validate(out); err != nil {
		t.Fatalf("timeline JSON failed trace.Validate: %v\n%s", err, out)
	}
}

func TestTimelineSlotAssignment(t *testing.T) {
	tl := NewTimeline(2, 2, 0)
	tl.JobStart(0, 0, "j0", []int{0}, nil)
	tl.JobStart(0, 1, "j1", []int{0}, nil) // co-tenant: next slot on node 0
	tl.JobEnd(5, 0)
	tl.JobStart(6, 2, "j2", []int{0}, nil) // slot 0 freed; lowest free slot wins
	evs := tl.Events().Snapshot()
	var begins []trace.Event
	for _, ev := range evs {
		if ev.Ph == trace.PhBegin {
			begins = append(begins, ev)
		}
	}
	wantTid := []int32{0, 1, 0}
	if len(begins) != len(wantTid) {
		t.Fatalf("got %d begin events, want %d", len(begins), len(wantTid))
	}
	for i, ev := range begins {
		if ev.Tid != wantTid[i] {
			t.Errorf("begin %d (%s): tid = %d, want %d", i, ev.Name, ev.Tid, wantTid[i])
		}
	}
}

func TestTimelineOversubscribedNodePanics(t *testing.T) {
	tl := NewTimeline(1, 1, 0)
	tl.JobStart(0, 0, "j0", []int{0}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("starting a second job on a full share=1 node did not panic")
		}
	}()
	tl.JobStart(1, 1, "j1", []int{0}, nil)
}

func TestTimelineCounterSeries(t *testing.T) {
	tl := NewTimeline(2, 1, 0)
	tl.Sample(0, 5, 0)
	tl.Sample(10, 3, 2)
	tl.Sample(20, 0, 1)
	qs := tl.Events().CounterSeries(SeriesQueueDepth)
	if len(qs) != 3 || qs[0].Value != 5 || qs[1].Value != 3 || qs[2].Value != 0 {
		t.Fatalf("queue-depth series = %+v, want values 5,3,0", qs)
	}
	os := tl.Events().CounterSeries(SeriesOccupiedNodes)
	if len(os) != 3 || os[2].TS != 20 || os[2].Value != 1 {
		t.Fatalf("occupied-nodes series = %+v, want last sample {20 1}", os)
	}
}

// TestTimelineAddJobEvents: a job-events slot reserved at launch and
// filled after later scheduler events materializes exactly as if the ring
// had been merged at launch.
func TestTimelineAddJobEvents(t *testing.T) {
	jobRing := trace.NewEvents(16)
	jobRing.Emit(trace.Event{Name: "step", Cat: "phase", Ph: trace.PhBegin, TS: 0, Pid: 0, Tid: 0})
	jobRing.Emit(trace.Event{Name: "step", Cat: "phase", Ph: trace.PhEnd, TS: 40, Pid: 0, Tid: 0})
	eager := NewTimeline(2, 1, 0)
	eager.JobStart(100, 3, "j3", []int{1}, nil)
	eager.FillJobEvents(eager.ReserveJobEvents(3, 100), jobRing.Snapshot(), jobRing.Dropped())
	eager.Sample(120, 0, 1)
	eager.JobEnd(150, 3)

	tl := NewTimeline(2, 1, 0)
	tl.JobStart(100, 3, "j3", []int{1}, nil)
	slot := tl.ReserveJobEvents(3, 100)
	tl.Sample(120, 0, 1)
	tl.JobEnd(150, 3)
	tl.FillJobEvents(slot, jobRing.Snapshot(), jobRing.Dropped())
	if !bytes.Equal(tl.JSON(), eager.JSON()) {
		t.Fatal("late-filled job-events slot materialized differently from an eager merge")
	}

	var onJobTrack int
	for _, ev := range tl.Events().Snapshot() {
		if ev.Pid == tl.JobPid(3) {
			onJobTrack++
			if ev.TS < 100 {
				t.Errorf("job-track event %q at ts %d, want shifted to >= 100", ev.Name, ev.TS)
			}
		}
	}
	if onJobTrack != 2 {
		t.Fatalf("got %d events on job 3's track, want 2", onJobTrack)
	}
	if err := trace.Validate(tl.JSON()); err != nil {
		t.Fatalf("timeline with merged job events failed validation: %v", err)
	}
}

func TestTimelineAddJobEventsFoldsDropped(t *testing.T) {
	tl := NewTimeline(1, 1, 0)
	tl.FillJobEvents(tl.ReserveJobEvents(0, 0), nil, 7)
	if got := tl.Events().Dropped(); got != 7 {
		t.Fatalf("Dropped() = %d after folding a lossy job ring, want 7", got)
	}
}

func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	tl.JobStart(0, 0, "j", []int{0}, nil)
	tl.JobEnd(1, 0)
	tl.Sample(2, 1, 1)
	tl.FillJobEvents(tl.ReserveJobEvents(0, 0), nil, 3)
	if tl.Open() != 0 || tl.Events() != nil || tl.JSON() != nil {
		t.Fatal("nil Timeline should observe nothing")
	}
	if tl.FacilityPid() != 0 || tl.JobPid(5) != 0 {
		t.Fatal("nil Timeline pids should be zero")
	}
}

func TestDecisionLogRoundTrip(t *testing.T) {
	l := NewDecisionLog()
	l.Record(Decision{Job: 0, TimeNs: 0, Kind: KindFIFO, Kernel: "mos", Nodes: []int{0, 1}})
	l.Record(Decision{
		Job: 2, TimeNs: 50, Kind: KindBackfill, Kernel: "linux", Nodes: []int{3}, Cotenancy: 2,
		Backfill: &BackfillEvidence{
			HeadJob: 1, HeadStartNs: 200,
			Reservations: []Reservation{{Job: 1, StartNs: 200, WallNs: 1000, Slots: 4}},
		},
	})
	if l.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", l.Len())
	}
	out, err := l.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	back, err := ReadDecisions(out)
	if err != nil {
		t.Fatalf("ReadDecisions: %v", err)
	}
	if rows := DiffDecisions(l.Decisions(), back); len(rows) != 0 {
		t.Fatalf("round trip changed the log: %v", rows)
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), out) {
		t.Fatal("WriteJSON and JSON disagree")
	}
}

func TestDecisionLogRejectsWrongSchema(t *testing.T) {
	if _, err := ReadDecisions([]byte(`{"schema":"bogus/v9","decisions":[]}`)); err == nil {
		t.Fatal("ReadDecisions accepted a wrong schema")
	}
}

func TestDiffDecisions(t *testing.T) {
	a := []Decision{{Job: 0, Kind: KindFIFO}, {Job: 1, Kind: KindFIFO}}
	b := []Decision{{Job: 0, Kind: KindFIFO}, {Job: 1, Kind: KindBackfill}, {Job: 2, Kind: KindFIFO}}
	rows := DiffDecisions(a, b)
	if len(rows) != 2 {
		t.Fatalf("DiffDecisions rows = %v, want a kind change and a length change", rows)
	}
	if !strings.HasPrefix(rows[0], "decision 1:") || !strings.HasPrefix(rows[1], "length:") {
		t.Fatalf("unexpected diff rows: %v", rows)
	}
	if rows := DiffDecisions(a, a); rows != nil {
		t.Fatalf("identical logs should not diff: %v", rows)
	}
}

func TestDecisionLogNilSafe(t *testing.T) {
	var l *DecisionLog
	l.Record(Decision{Job: 1})
	if l.Len() != 0 || l.Decisions() != nil {
		t.Fatal("nil DecisionLog should record nothing")
	}
	out, err := l.JSON()
	if err != nil {
		t.Fatalf("nil DecisionLog JSON: %v", err)
	}
	if _, err := ReadDecisions(out); err != nil {
		t.Fatalf("nil DecisionLog JSON should still parse: %v", err)
	}
}

func TestParseSLO(t *testing.T) {
	s, err := ParseSLO("wait_p99_sec<=2.5; utilization_pct>=60;degraded_jobs<=0;")
	if err != nil {
		t.Fatalf("ParseSLO: %v", err)
	}
	want := []SLORule{
		{Metric: "wait_p99_sec", Op: OpLE, Threshold: 2.5},
		{Metric: "utilization_pct", Op: OpGE, Threshold: 60},
		{Metric: "degraded_jobs", Op: OpLE, Threshold: 0},
	}
	if len(s.Rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(s.Rules), len(want))
	}
	for i, r := range s.Rules {
		if r != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, r, want[i])
		}
	}
	if got := s.String(); got != "wait_p99_sec<=2.5;utilization_pct>=60;degraded_jobs<=0" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseSLOErrors(t *testing.T) {
	for _, spec := range []string{"", ";;", "wait_p99_sec=2", "<=5", "x<=notanumber"} {
		if _, err := ParseSLO(spec); err == nil {
			t.Errorf("ParseSLO(%q) accepted a bad spec", spec)
		}
	}
}

func TestSLOEval(t *testing.T) {
	s, err := ParseSLO("wait_p99_sec<=2;utilization_pct>=60;degraded_jobs<=0")
	if err != nil {
		t.Fatalf("ParseSLO: %v", err)
	}
	values := map[string]float64{"wait_p99_sec": 1.5, "utilization_pct": 55, "degraded_jobs": 0}
	rep, err := s.Eval(values)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if rep.Passed {
		t.Fatal("report passed despite utilization_pct 55 < 60")
	}
	if len(rep.Results) != 3 || !rep.Results[0].Pass || rep.Results[1].Pass || !rep.Results[2].Pass {
		t.Fatalf("unexpected results: %+v", rep.Results)
	}

	values["utilization_pct"] = 60 // boundary is inclusive on both ops
	rep, err = s.Eval(values)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if !rep.Passed {
		t.Fatalf("boundary values should pass: %+v", rep.Results)
	}

	if _, err := s.Eval(map[string]float64{"wait_p99_sec": 1}); err == nil {
		t.Fatal("Eval accepted a run missing a rule's metric")
	}

	var nilSLO *SLO
	rep, err = nilSLO.Eval(values)
	if err != nil || rep != nil {
		t.Fatalf("nil SLO should evaluate to no report, got %+v, %v", rep, err)
	}
}

func TestOptionsNilSafe(t *testing.T) {
	var o *Options
	if o.TimelineOn() || o.DecisionsOn() || o.JobCountersOn() || o.JobEventsOn() || o.Enabled() {
		t.Fatal("nil Options should disable everything")
	}
	if got := o.JobEventRingCap(); got != DefaultJobEventCap {
		t.Fatalf("nil Options ring cap = %d, want default %d", got, DefaultJobEventCap)
	}
	on := &Options{Timeline: NewTimeline(1, 1, 0), JobEvents: true, JobEventCap: 64}
	if !on.TimelineOn() || !on.JobEventsOn() || !on.Enabled() || on.JobEventRingCap() != 64 {
		t.Fatal("populated Options misreported its switches")
	}
	if (&Options{JobEvents: true}).JobEventsOn() {
		t.Fatal("JobEvents without a Timeline should be off")
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// DecisionsSchema versions the decision-log file format. Bump when a field
// is renamed or its meaning changes; mkobs diff refuses to compare files
// with different schemas.
const DecisionsSchema = "mklite-decisions/v1"

// Decision kinds.
const (
	// KindFIFO marks a job that started as part of the FIFO prefix: the
	// facility had room when its turn came.
	KindFIFO = "fifo"
	// KindBackfill marks a job that started ahead of an earlier-arrived
	// job, admitted by the conservative backfill pass.
	KindBackfill = "backfill"
)

// Reservation is one walltime-limit reservation the backfill pass planned
// against: a queued job's promised slots from StartNs for WallNs.
type Reservation struct {
	Job     int   `json:"job"`
	StartNs int64 `json:"start_ns"`
	WallNs  int64 `json:"wall_ns"`
	Slots   int   `json:"slots"`
}

// BackfillEvidence is why a backfill launch was legal: the blocked head's
// reserved start and every reservation (head first, then the examined
// non-starting candidates in arrival order) that the candidate's immediate
// start was checked against. Replaying the launch against this snapshot —
// the candidate fits now for its full walltime limit with every reservation
// intact — re-derives the conservative-backfill invariant that admitted it.
type BackfillEvidence struct {
	HeadJob      int           `json:"head_job"`
	HeadStartNs  int64         `json:"head_start_ns"`
	Reservations []Reservation `json:"reservations"`
}

// Decision is one launched job's record: when and why it started, which
// kernel the policy chose, and which nodes the allocator placed it on.
type Decision struct {
	// Job is the launched job's ID.
	Job int `json:"job"`
	// TimeNs is the launch instant on the virtual facility clock.
	TimeNs int64 `json:"t_ns"`
	// Kind is KindFIFO or KindBackfill.
	Kind string `json:"kind"`
	// Kernel is the policy's choice for this job.
	Kernel string `json:"kernel"`
	// Nodes is the allocator's placement (lowest-occupancy-first order).
	Nodes []int `json:"nodes"`
	// Cotenancy is the launch-time co-tenancy the allocator reported.
	Cotenancy int `json:"cotenancy,omitempty"`
	// Backfill carries the reservation snapshot for KindBackfill records.
	Backfill *BackfillEvidence `json:"backfill,omitempty"`
}

// DecisionLog accumulates one observed fleet run's launch decisions in
// commit order (the scheduler records each job as it launches it, so the
// log is a deterministic function of the schedule). Per-run, single-goroutine
// state; the nil *DecisionLog records nothing.
type DecisionLog struct {
	decisions []Decision
}

// NewDecisionLog returns an empty log.
func NewDecisionLog() *DecisionLog { return &DecisionLog{} }

// Record appends one decision.
func (l *DecisionLog) Record(d Decision) {
	if l == nil {
		return
	}
	l.decisions = append(l.decisions, d)
}

// Len returns the number of recorded decisions.
func (l *DecisionLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.decisions)
}

// Decisions returns the recorded decisions in commit order.
func (l *DecisionLog) Decisions() []Decision {
	if l == nil {
		return nil
	}
	return l.decisions
}

// decisionFile is the on-disk shape of a decision-log dump.
type decisionFile struct {
	Schema    string     `json:"schema"`
	Decisions []Decision `json:"decisions"`
}

// JSON renders the log as a schema-versioned document. encoding/json emits
// struct fields in declaration order and the log itself is in commit order,
// so the bytes are deterministic.
func (l *DecisionLog) JSON() ([]byte, error) {
	ds := l.Decisions()
	if ds == nil {
		ds = []Decision{} // keep `"decisions": []` for an empty log
	}
	out, err := json.MarshalIndent(decisionFile{Schema: DecisionsSchema, Decisions: ds}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// WriteJSON writes the schema-versioned decision log.
func (l *DecisionLog) WriteJSON(w io.Writer) error {
	out, err := l.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// ReadDecisions parses a dump produced by WriteJSON, checking the schema and
// that the decisions array is present (JSON writes `[]` for an empty log),
// so a truncated or foreign file is an error, not an empty log.
func ReadDecisions(data []byte) ([]Decision, error) {
	var f decisionFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("obs: parsing decision log: %w", err)
	}
	if f.Schema != DecisionsSchema {
		return nil, fmt.Errorf("obs: decision schema %q, want %q", f.Schema, DecisionsSchema)
	}
	if f.Decisions == nil {
		return nil, fmt.Errorf("obs: decision log has no decisions array")
	}
	return f.Decisions, nil
}

// DiffDecisions compares two decision logs record by record and returns one
// human-readable row per difference (empty = identical). Logs are compared
// positionally — they are commit-ordered, so position is identity — with
// length mismatches reported after the common prefix.
func DiffDecisions(a, b []Decision) []string {
	var rows []string
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		da, _ := json.Marshal(a[i])
		db, _ := json.Marshal(b[i])
		if !bytes.Equal(da, db) {
			rows = append(rows, fmt.Sprintf("decision %d: %s -> %s", i, da, db))
		}
	}
	if len(a) != len(b) {
		rows = append(rows, fmt.Sprintf("length: %d -> %d decisions", len(a), len(b)))
	}
	return rows
}

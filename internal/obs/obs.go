// Package obs is the facility-level observability layer on top of
// internal/trace and internal/metrics: it links what the fleet scheduler
// decides (queueing, backfill, allocation, kernel choice) to what each job's
// cluster- and kernel-level mechanisms then cost, with the job ID as the
// causal key. Three artifacts come out of one observed fleet run:
//
//   - a facility Timeline in the existing Chrome trace-event/Perfetto schema
//     ("mklite-trace/v1"): one track per node showing occupancy/co-tenancy
//     Gantt spans keyed by virtual facility time, facility-wide queue-depth
//     and occupied-node counter series, and (opt-in) every job's own
//     cluster/kernel trace events re-homed onto a per-job track via
//     trace.Rescoped — the job-scoped span linkage;
//   - a structured backfill DecisionLog ("mklite-decisions/v1") recording
//     why each job launched — FIFO head, or backfill slot together with the
//     reservation snapshot the conservative pass planned against, plus the
//     allocator's node choice — replayable and diffable like counters;
//   - a declarative SLO report evaluated deterministically from the run's
//     metrics (queue-wait quantiles, utilization, degraded jobs, ...),
//     surfaced in fleet.Result and as `mkobs check` exit status.
//
// The design contract is internal/trace's, lifted one level up:
//
//  1. Observation is passive. Nothing in this package draws from a sim.RNG
//     or feeds back into scheduling; a fleet run with observability fully
//     disabled is byte-identical to one built before this package existed,
//     and an observed run's artifacts are byte-identical at any par width.
//  2. Timeline, DecisionLog and the per-job event rings are per-run,
//     single-goroutine state — never package globals, never captured across
//     internal/par job closures (mklint's parshare analyzer rejects the
//     capture). Job closures build their own job-local rings; the
//     scheduler merges them in launch order as it resolves each job.
//  3. Off is free. The nil *Timeline, *DecisionLog and *Options are the off
//     switches: every method is nil-receiver safe and records nothing.
//
// All timestamps are virtual nanoseconds (the same int64 unit as sim.Time);
// like internal/trace the package does not import sim. See
// docs/OBSERVABILITY.md.
package obs

// Options bundles a fleet run's observability destinations and switches.
// The zero value (and the nil pointer) disables everything. The caller owns
// Timeline and Decisions: construct them next to the run's config, pass them
// in, and read the artifacts out after the run returns — per-run state,
// exactly like a *trace.Sink.
type Options struct {
	// Timeline receives the facility occupancy/co-tenancy spans and the
	// queue-depth/occupied-node counter series (nil = off).
	Timeline *Timeline
	// Decisions receives one record per launched job explaining why it
	// started when it did (nil = off).
	Decisions *DecisionLog
	// JobCounters namespaces every job's cluster-level mechanism counters
	// as job/<id>/<name> into fleet.Result.JobCounters, preserving per-job
	// provenance through the merge. The flat job-order merge into
	// Result.Counters is unchanged — the namespaced view is additional.
	JobCounters bool
	// JobEvents collects every job's own cluster/kernel trace events into
	// a job-local ring inside the job closure and merges them into
	// Timeline as a per-job track (trace.Rescoped with the job's pid and
	// launch time). Requires Timeline. Meant for small runs: at facility
	// scale the per-job detail dwarfs the occupancy spans.
	JobEvents bool
	// JobEventCap bounds each job-local ring (0 selects DefaultJobEventCap).
	// A job ring that evicts merges with its loss folded into the
	// timeline's dropped count, so the exported document stays honest.
	JobEventCap int
}

// DefaultJobEventCap bounds a job-local event ring when Options.JobEventCap
// is zero: generous enough that a facility-sized job (a few dozen timesteps,
// six phase spans each, plus collective instants) never evicts.
const DefaultJobEventCap = 1 << 14

// TimelineOn reports whether a facility timeline is attached.
func (o *Options) TimelineOn() bool { return o != nil && o.Timeline != nil }

// DecisionsOn reports whether a decision log is attached.
func (o *Options) DecisionsOn() bool { return o != nil && o.Decisions != nil }

// JobCountersOn reports whether per-job counter namespacing is requested.
func (o *Options) JobCountersOn() bool { return o != nil && o.JobCounters }

// JobEventsOn reports whether per-job event collection is requested (it
// needs a timeline to merge into).
func (o *Options) JobEventsOn() bool { return o != nil && o.JobEvents && o.Timeline != nil }

// JobEventRingCap returns the per-job ring capacity to use.
func (o *Options) JobEventRingCap() int {
	if o == nil || o.JobEventCap <= 0 {
		return DefaultJobEventCap
	}
	return o.JobEventCap
}

// Enabled reports whether any observability backend is on — the scheduler's
// single fast-path test.
func (o *Options) Enabled() bool {
	return o != nil && (o.Timeline != nil || o.Decisions != nil || o.JobCounters)
}

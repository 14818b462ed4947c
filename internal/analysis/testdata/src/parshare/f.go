// Fixture for the parshare obs rule: an obs.Timeline or obs.DecisionLog is
// one observed facility run's artifact state, fed by the scheduler's
// sequential commit loop. Capturing either across a par.Map closure would
// interleave occupancy spans and decision records in worker order — the
// capture must be flagged; building job-local rings inside the closure and
// merging them after the join must not.
package parshare

import (
	"mklite/internal/obs"
	"mklite/internal/par"
	"mklite/internal/trace"
)

func badSharedTimeline() []int {
	tl := obs.NewTimeline(8, 1, 0)
	return par.Map(4, func(i int) int {
		tl.Sample(int64(i), i, 0) // want `par closure captures \*obs\.Timeline "tl" from an enclosing scope`
		return i
	})
}

func badSharedDecisionLog() []int {
	log := obs.NewDecisionLog()
	return par.Map(4, func(i int) int {
		log.Record(obs.Decision{Job: i}) // want `par closure captures \*obs\.DecisionLog "log" from an enclosing scope`
		return i
	})
}

func goodJobLocalRingsMergedAfterJoin() *obs.Timeline {
	tl := obs.NewTimeline(8, 1, 0)
	rings := par.Map(4, func(i int) *trace.Events {
		// Per-job ring built inside the closure: no shared state.
		e := trace.NewEvents(16)
		e.Emit(trace.Event{Name: "step", Cat: "phase", Ph: trace.PhInstant, TS: int64(i)})
		return e
	})
	for job, e := range rings {
		// Merge in index order after the join — the sanctioned pattern.
		tl.FillJobEvents(tl.ReserveJobEvents(job, 0), e.Snapshot(), e.Dropped())
	}
	return tl
}

func goodDecisionLogOutsideFanOut() int {
	log := obs.NewDecisionLog()
	log.Record(obs.Decision{Job: 0, Kind: obs.KindFIFO})
	return log.Len()
}

// Fixture for the parshare obs rule: an obs.Timeline or obs.DecisionLog is
// one observed facility run's artifact state, fed by the scheduler's
// sequential commit loop. Capturing either across a par closure would
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
	out, _ := par.MapWidthErr(0, 4, func(i int) (int, error) {
		tl.Sample(int64(i), i, 0) // want `par closure captures \*obs\.Timeline "tl" from an enclosing scope`
		return i, nil
	})
	return out
}

func badSharedDecisionLog() []int {
	log := obs.NewDecisionLog()
	out, _ := par.MapWidthErr(0, 4, func(i int) (int, error) {
		log.Record(obs.Decision{Job: i}) // want `par closure captures \*obs\.DecisionLog "log" from an enclosing scope`
		return i, nil
	})
	return out
}

func goodJobLocalRingsMergedAfterJoin() *obs.Timeline {
	tl := obs.NewTimeline(8, 1, 0)
	rings, _ := par.MapWidthErr(0, 4, func(i int) (*trace.Events, error) {
		// Per-job ring built inside the closure: no shared state.
		e := trace.NewEvents(16)
		e.Emit(trace.Event{Name: "step", Cat: "phase", Ph: trace.PhInstant, TS: int64(i)})
		return e, nil
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
	return len(log.Decisions())
}

package fleet

import (
	"testing"

	"mklite/internal/sim"
)

// BenchmarkBackfillPass is the backfill layer's benchmark: one
// conservative-backfill pass (schedulePass) over a congested 64-node
// facility. Sixteen running 4-node jobs hold every node, releasing over the
// next eight hours, and 200 jobs of 1 to 32 nodes wait behind a blocked
// head. Nothing fits now, so each pass plans the same DefaultBackfillDepth
// reservations on a fresh availability profile, launches nothing and
// leaves the scheduler as it found it.
func BenchmarkBackfillPass(b *testing.B) {
	s := newScheduler(Config{Nodes: 64, Share: 1, Backfill: true}.normalize())
	rng := sim.NewRNG(1)
	for id := range 16 {
		nodes, _, err := s.alloc.Alloc(4)
		if err != nil {
			b.Fatal(err)
		}
		j := &Job{ID: id, Nodes: 4, WallLimit: sim.Duration(1+rng.Intn(8)) * sim.Hour}
		s.running = append(s.running, &runningJob{job: j, nodes: nodes})
	}
	for id := 16; id < 216; id++ {
		s.queue = append(s.queue, &Job{ID: id, Nodes: 1 + rng.Intn(32),
			WallLimit: sim.Duration(10+rng.Intn(230)) * sim.Minute})
	}
	b.ReportAllocs()
	for b.Loop() {
		if out := s.schedulePass(); len(out) > 0 || len(s.queue) != 200 {
			b.Fatalf("pass launched %d jobs, %d left queued", len(out), len(s.queue))
		}
	}
}

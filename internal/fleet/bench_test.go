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
	benchPass(b, s)
}

// BenchmarkBackfillPassShared is the same pass in the quick facility's
// shape: 64 nodes shared two ways, jobs from the quick facility's stream.
// The stream's jobs start in arrival order, skipping any that do not fit,
// until they fill all 128 slots; the rest wait, so the head blocks and the
// pass plans DefaultBackfillDepth reservations against the running set's
// walltime limits.
func BenchmarkBackfillPassShared(b *testing.B) {
	cfg := Config{Nodes: 64, Jobs: 150, Share: 2, Backfill: true, Seed: 1}.normalize()
	stream, err := GenerateStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := newScheduler(cfg)
	for _, j := range stream {
		if s.alloc.busy < cfg.Nodes*cfg.Share && s.alloc.Fits(j.Nodes) {
			nodes, _, err := s.alloc.Alloc(j.Nodes)
			if err != nil {
				b.Fatal(err)
			}
			s.running = append(s.running, &runningJob{job: j, nodes: nodes})
			continue
		}
		s.queue = append(s.queue, j)
	}
	if s.alloc.busy != cfg.Nodes*cfg.Share {
		b.Fatalf("running set fills %d of %d slots", s.alloc.busy, cfg.Nodes*cfg.Share)
	}
	benchPass(b, s)
}

// benchPass times schedulePass on a scheduler where nothing fits now, so
// every pass plans the same reservations and launches nothing.
func benchPass(b *testing.B, s *Scheduler) {
	queued := len(s.queue)
	b.ReportAllocs()
	for b.Loop() {
		if out := s.schedulePass(); len(out) > 0 || len(s.queue) != queued {
			b.Fatalf("pass launched %d jobs, %d of %d left queued", len(out), len(s.queue), queued)
		}
	}
}

package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// refHeap is the binary heap the calendar queue replaced, kept here as the
// reference model for the equivalence property: a container/heap ordered by
// (at, seq), exactly as internal/sim/engine.go had it before the calendar
// queue landed.
type refHeap []*Event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// TestCalQueueMatchesBinaryHeap drives the calendar queue and the retired
// binary heap through identical random workloads — pushes at random future
// times, same-timestamp bursts, cancellations, interleaved pops — and
// requires byte-for-byte identical pop sequences. Pops respect the engine
// invariant that nothing is ever scheduled before the last popped timestamp.
func TestCalQueueMatchesBinaryHeap(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 0xdead} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := NewRNG(seed)
			var q calQueue
			q.init()
			var ref refHeap
			var live []*Event // events pushed and not yet popped, for Cancel
			var seq uint64
			now := Time(0)

			push := func(at Time) {
				ev := &Event{at: at, seq: seq}
				seq++
				q.push(ev)
				// The reference holds its own Event so the heap's
				// bookkeeping cannot alias the calendar queue's.
				heap.Push(&ref, &Event{at: at, seq: ev.seq, dead: false})
				live = append(live, ev)
			}
			popBoth := func() {
				got := q.pop()
				var want *Event
				if ref.Len() > 0 {
					want = heap.Pop(&ref).(*Event)
				}
				switch {
				case got == nil && want == nil:
					return
				case got == nil || want == nil:
					t.Fatalf("pop mismatch: calqueue=%v heap=%v", got, want)
				case got.at != want.at || got.seq != want.seq:
					t.Fatalf("pop order diverged: calqueue (at=%d seq=%d) vs heap (at=%d seq=%d)",
						got.at, got.seq, want.at, want.seq)
				case got.dead != want.dead:
					t.Fatalf("cancel state diverged at seq %d", got.seq)
				}
				now = got.at
			}

			for op := 0; op < 20000; op++ {
				switch r := rng.Intn(100); {
				case r < 45: // push at a random future time
					push(now + Time(rng.Intn(5000)))
				case r < 60: // same-timestamp burst
					at := now + Time(rng.Intn(1000))
					for i := 0; i < 1+rng.Intn(8); i++ {
						push(at)
					}
				case r < 70: // far-future outlier (stresses bucket wrap)
					push(now + Time(1+rng.Int63n(int64(50*Second))))
				case r < 80: // cancel a random live event in both structures
					if len(live) > 0 {
						i := rng.Intn(len(live))
						victim := live[i]
						victim.dead = true
						for j := range ref {
							if ref[j].seq == victim.seq {
								ref[j].dead = true
								break
							}
						}
						live = append(live[:i], live[i+1:]...)
					}
				default:
					popBoth()
				}
			}
			// Drain: the tails must match too.
			for q.size > 0 || ref.Len() > 0 {
				popBoth()
			}
		})
	}
}

// TestCalQueueFIFOBurst pops a large same-timestamp burst in strict
// insertion order — the tie-break contract the engine's determinism rests
// on, exercised through bucket resizes.
func TestCalQueueFIFOBurst(t *testing.T) {
	var q calQueue
	q.init()
	const n = 4096
	for i := 0; i < n; i++ {
		q.push(&Event{at: 77, seq: uint64(i)})
	}
	for i := 0; i < n; i++ {
		ev := q.pop()
		if ev == nil || ev.seq != uint64(i) {
			t.Fatalf("burst pop %d returned seq %v", i, ev)
		}
	}
	if q.pop() != nil {
		t.Fatal("queue not empty after draining burst")
	}
}

// TestEngineDrainKillOrderDeterministic spawns processes with teardown
// side effects and requires Drain to unwind them in spawn order — the old
// Drain ranged over the procs map, so the order (and any trace output of
// the deferred cleanup) varied between runs.
func TestEngineDrainKillOrderDeterministic(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		e := NewEngine(1)
		const n = 16
		var unwound []int
		for i := 0; i < n; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				defer func() { unwound = append(unwound, i) }()
				p.Sleep(1000 * Duration(Second))
			})
		}
		e.RunUntil(10) // all processes started and blocked in Sleep
		e.Drain()
		if len(unwound) != n {
			t.Fatalf("iter %d: %d of %d processes unwound during Drain", iter, len(unwound), n)
		}
		for i, v := range unwound {
			if v != i {
				t.Fatalf("iter %d: kill order not spawn order: %v", iter, unwound)
			}
		}
	}
}

// TestEngineDrainReleasesEventReferences checks that Drain really empties
// the queue's storage: a post-Drain engine schedules and runs fresh events
// with no leftovers from before.
func TestEngineDrainReleasesEventReferences(t *testing.T) {
	e := NewEngine(1)
	stale := 0
	for i := 0; i < 100; i++ {
		e.After(Duration(i), func() { stale++ })
	}
	e.Drain()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Drain", e.Pending())
	}
	ran := false
	e.After(5, func() { ran = true })
	e.Run()
	if stale != 0 {
		t.Fatalf("%d drained events ran", stale)
	}
	if !ran {
		t.Fatal("post-Drain event did not run")
	}
}

// BenchmarkCalQueueHold is the calendar queue's layer benchmark, by the
// classic hold model: a queue of n pending events where each operation pops
// the earliest and pushes it back a random distance into the future, with
// a same-timestamp pair every eighth push. One op is one pop plus one push.
// The retired binary heap (refHeap) runs the same sequence beside it
// (/calqueue against /heap).
func BenchmarkCalQueueHold(b *testing.B) {
	for _, n := range []int{64, 4096} {
		rng := NewRNG(uint64(n))
		steps := make([]Time, 1024)
		for i := range steps {
			steps[i] = Time(1 + rng.Intn(5000))
			if i%8 == 7 {
				steps[i] = 0
			}
		}
		b.Run(fmt.Sprintf("n=%d/calqueue", n), func(b *testing.B) {
			var q calQueue
			q.init()
			for i := range n {
				q.push(&Event{at: steps[i%len(steps)], seq: uint64(i)})
			}
			seq := uint64(n)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				ev := q.pop()
				ev.at += steps[i%len(steps)]
				ev.seq = seq
				q.push(ev)
				seq++
				i++
			}
		})
		b.Run(fmt.Sprintf("n=%d/heap", n), func(b *testing.B) {
			var h refHeap
			for i := range n {
				heap.Push(&h, &Event{at: steps[i%len(steps)], seq: uint64(i)})
			}
			seq := uint64(n)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				ev := heap.Pop(&h).(*Event)
				ev.at += steps[i%len(steps)]
				ev.seq = seq
				heap.Push(&h, ev)
				seq++
				i++
			}
		})
	}
}

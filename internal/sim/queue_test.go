package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// refHeap is the reference model for the event queue's ordering contract:
// a container/heap ordered by (at, seq).
type refHeap []*event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// TestCalQueueMatchesBinaryHeap (named for the calendar queue the event
// queue replaced) drives the event queue and the container/heap reference
// through identical random workloads (pushes at random future times,
// same-timestamp bursts, far-future outliers, interleaved pops) and
// requires identical pop sequences. Pops respect the engine invariant that
// nothing is ever scheduled before the last popped timestamp.
func TestCalQueueMatchesBinaryHeap(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 0xdead} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := NewRNG(seed)
			var q eventQueue
			var ref refHeap
			var seq uint64
			now := Time(0)

			push := func(at Time) {
				q.push(&event{at: at, seq: seq})
				// The reference holds its own event so the heap's
				// bookkeeping cannot alias the queue's.
				heap.Push(&ref, &event{at: at, seq: seq})
				seq++
			}
			popBoth := func() {
				got := q.pop()
				var want *event
				if ref.Len() > 0 {
					want = heap.Pop(&ref).(*event)
				}
				switch {
				case got == nil && want == nil:
					return
				case got == nil || want == nil:
					t.Fatalf("pop mismatch: queue=%v heap=%v", got, want)
				case got.at != want.at || got.seq != want.seq:
					t.Fatalf("pop order diverged: queue (at=%d seq=%d) vs heap (at=%d seq=%d)",
						got.at, got.seq, want.at, want.seq)
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
				case r < 70: // far-future outlier
					push(now + Time(1+rng.Uint64n(uint64(50*Second))))
				default:
					popBoth()
				}
			}
			// Drain: the tails must match too.
			for len(q) > 0 || ref.Len() > 0 {
				popBoth()
			}
		})
	}
}

// TestCalQueueFIFOBurst pops a large same-timestamp burst in strict
// insertion order: the tie-break contract the engine's determinism rests
// on.
func TestCalQueueFIFOBurst(t *testing.T) {
	var q eventQueue
	const n = 4096
	for i := 0; i < n; i++ {
		q.push(&event{at: 77, seq: uint64(i)})
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
	if len(e.events) != 0 {
		t.Fatalf("%d events pending after Drain", len(e.events))
	}
	ran := false
	e.After(5, func() { ran = true })
	e.RunUntil(Never)
	if stale != 0 {
		t.Fatalf("%d drained events ran", stale)
	}
	if !ran {
		t.Fatal("post-Drain event did not run")
	}
}

// BenchmarkEventQueueHold is the event queue's layer benchmark, by the
// classic hold model: a queue of n pending events where each operation pops
// the earliest and pushes it back a random distance into the future, with
// a same-timestamp pair every eighth push. One op is one pop plus one push.
// The container/heap reference (refHeap) runs the same sequence beside it
// (/queue against /containerheap).
func BenchmarkEventQueueHold(b *testing.B) {
	for _, n := range []int{64, 4096} {
		rng := NewRNG(uint64(n))
		steps := make([]Time, 1024)
		for i := range steps {
			steps[i] = Time(1 + rng.Intn(5000))
			if i%8 == 7 {
				steps[i] = 0
			}
		}
		b.Run(fmt.Sprintf("n=%d/queue", n), func(b *testing.B) {
			var q eventQueue
			for i := range n {
				q.push(&event{at: steps[i%len(steps)], seq: uint64(i)})
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
		b.Run(fmt.Sprintf("n=%d/containerheap", n), func(b *testing.B) {
			var h refHeap
			for i := range n {
				heap.Push(&h, &event{at: steps[i%len(steps)], seq: uint64(i)})
			}
			seq := uint64(n)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				ev := heap.Pop(&h).(*event)
				ev.at += steps[i%len(steps)]
				ev.seq = seq
				heap.Push(&h, ev)
				seq++
				i++
			}
		})
	}
}

package fleet

import (
	"slices"
	"testing"

	"mklite/internal/sim"
)

// The references below are the backfill profile algebra as first written:
// simple enough to read as the specification, and too slow for every pass.
// FuzzBackfillProfile and TestAvailableNodesMatchesScan check the pass's
// profile and allocator against them.

// refNewProfile builds the timeline one release at a time: each release,
// clamped to now, splits a breakpoint in and adds its slots to every
// segment from it on — O(R·B), from releases in any order.
func refNewProfile(now sim.Time, freeNow int, releases []release) *profile {
	p := &profile{times: []sim.Time{now}, free: []int{freeNow}}
	for _, r := range releases {
		t := r.at
		if t.Before(now) {
			t = now
		}
		for i := p.split(t); i < len(p.times); i++ {
			p.free[i] += r.slots
		}
	}
	return p
}

// refFitsAt scans every segment: slots fit at t for d unless a segment that
// starts before t+d and ends after t is short of them.
func refFitsAt(p *profile, t sim.Time, d sim.Duration, slots int) bool {
	for i := range p.times {
		next := sim.Never
		if i+1 < len(p.times) {
			next = p.times[i+1]
		}
		if p.times[i].Before(t.Add(d)) && next.After(t) && p.free[i] < slots {
			return false
		}
	}
	return true
}

// refEarliest tries every breakpoint in order — O(B²).
func refEarliest(p *profile, d sim.Duration, slots int) sim.Time {
	for _, t := range p.times {
		if refFitsAt(p, t, d, slots) {
			return t
		}
	}
	panic("refEarliest: no feasible start")
}

// refAvailableNodes counts the nodes that admit one more job by a scan.
func refAvailableNodes(a *Allocator) int {
	free := 0
	for _, o := range a.occ {
		if o < a.share {
			free++
		}
	}
	return free
}

// FuzzBackfillProfile builds one timeline the pass's way (releases clamped
// and sorted, then one prefix sum into a reused buffer) and one the
// reference way, then drives both through the same take/fitsAt/earliest
// calls. Breakpoints, free counts and every answer must agree with the
// references after every call.
//
// Inputs: the profile start and free slots now; rel, two bytes per
// release (its instant, up to 64 s before or 191 s after now in whole
// seconds, so past and duplicate instants are common, and its slots); ops,
// three bytes per call (the call kind in the low two bits and an offset
// from now in half seconds above them, the duration in half seconds, and
// the slots, up to the timeline's capacity). Only the first 64 releases and
// 64 calls are used, which keeps the quadratic references quick.
func FuzzBackfillProfile(f *testing.F) {
	f.Add(uint32(0), uint8(2), []byte{74, 4, 84, 2}, []byte{3, 10, 2, 3, 10, 4, 0, 24, 2, 2, 2, 1})
	f.Add(uint32(1000), uint8(0), []byte{10, 3, 64, 1, 64, 2, 90, 0, 90, 5}, []byte{3, 0, 9, 0, 7, 3, 5, 4, 1, 3, 1, 6})
	f.Add(uint32(7), uint8(5), []byte{}, []byte{1, 0, 5, 6, 3, 0, 3, 63, 5})
	f.Add(uint32(42), uint8(1), []byte{200, 7, 200, 1, 65, 2, 0, 2}, []byte{0, 40, 11, 0, 12, 3, 3, 5, 9, 14, 9, 1, 2, 0, 0})
	var fast profile // one buffer across inputs, as a Scheduler reuses its own
	f.Fuzz(func(t *testing.T, nowS uint32, freeNow uint8, rel, ops []byte) {
		rel, ops = rel[:min(len(rel), 128)], ops[:min(len(ops), 192)]
		now := sim.Time(nowS) * sim.Time(sim.Second)
		free := int(freeNow % 32)
		capacity := free
		releases := make([]release, 0, len(rel)/2)
		for i := 0; i+1 < len(rel); i += 2 {
			r := release{at: now.Add(sim.Duration(int(rel[i])-64) * sim.Second), slots: int(rel[i+1] % 9)}
			releases = append(releases, r)
			capacity += r.slots
		}
		ref := refNewProfile(now, free, releases)
		sorted := slices.Clone(releases)
		clampSortReleases(now, sorted)
		got := availSnapshot{now: now, freeNow: free, releases: sorted}.profile(&fast)
		sameProfile(t, "built", got, ref)

		for i := 0; i+2 < len(ops); i += 3 {
			at := now.Add(sim.Duration(ops[i]>>2) * sim.Second / 2)
			d := sim.Duration(ops[i+1]%64) * sim.Second / 2
			slots := int(ops[i+2]) % (capacity + 1)
			switch ops[i] & 3 {
			case 0: // reserve at the earliest start, as the pass does
				start := got.earliest(d, slots)
				if want := refEarliest(ref, d, slots); start != want {
					t.Fatalf("op %d: earliest(%v, %d) = %v, reference %v", i/3, d, slots, start, want)
				}
				got.take(start, d, slots)
				ref.take(start, d, slots)
			case 1: // start at a given instant where it fits, as a backfill does
				if refFitsAt(ref, at, d, slots) {
					got.take(at, d, slots)
					ref.take(at, d, slots)
				}
			case 2:
				if g, w := got.fitsAt(at, d, slots), refFitsAt(ref, at, d, slots); g != w {
					t.Fatalf("op %d: fitsAt(%v, %v, %d) = %v, reference %v", i/3, at, d, slots, g, w)
				}
			case 3:
				if g, w := got.earliest(d, slots), refEarliest(ref, d, slots); g != w {
					t.Fatalf("op %d: earliest(%v, %d) = %v, reference %v", i/3, d, slots, g, w)
				}
			}
			sameProfile(t, "after op", got, ref)
		}
	})
}

// sameProfile fails t unless got and want have the same breakpoints and
// free counts.
func sameProfile(t *testing.T, when string, got, want *profile) {
	t.Helper()
	if !slices.Equal(got.times, want.times) || !slices.Equal(got.free, want.free) {
		t.Fatalf("%s: profile times %v free %v, reference times %v free %v",
			when, got.times, got.free, want.times, want.free)
	}
}

// TestAvailableNodesMatchesScan drives allocators of random size and share
// through random Alloc/Free sequences: the kept count must equal a scan of
// the nodes after every call, and Fits must agree with the scan.
func TestAvailableNodesMatchesScan(t *testing.T) {
	rng := sim.NewRNG(1)
	for trial := range 200 {
		a := NewAllocator(1+rng.Intn(16), rng.Intn(4))
		var live [][]int
		for step := range 60 {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				a.Free(live[k])
				live = slices.Delete(live, k, k+1)
			} else if n := 1 + rng.Intn(a.Nodes()); a.Fits(n) {
				nodes, _, err := a.Alloc(n)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, nodes)
			}
			scan := refAvailableNodes(a)
			if got := a.AvailableNodes(); got != scan {
				t.Fatalf("trial %d step %d: AvailableNodes = %d, scan %d", trial, step, got, scan)
			}
			for n := 0; n <= a.Nodes()+1; n++ {
				if want := n > 0 && n <= a.Nodes() && scan >= n; a.Fits(n) != want {
					t.Fatalf("trial %d step %d: Fits(%d) = %v with %d of %d nodes available",
						trial, step, n, !want, scan, a.Nodes())
				}
			}
		}
	}
}

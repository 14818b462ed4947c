package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"mklite/internal/sim"
)

// mapWidth fans fn out through MapWidthErr for jobs that cannot fail.
func mapWidth[T any](width, n int, fn func(i int) T) []T {
	out, _ := MapWidthErr(width, n, func(i int) (T, error) { return fn(i), nil })
	return out
}

func TestMapIndexOrder(t *testing.T) {
	for _, width := range []int{0, 1, 2, 7, 64} {
		got := mapWidth(width, 20, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("width %d: out[%d] = %d, want %d", width, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := mapWidth(0, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("mapWidth(0, 0) = %v, want nil", got)
	}
	if got, err := MapWidthErr(0, -3, func(i int) (int, error) { return i, nil }); got != nil || err != nil {
		t.Fatalf("MapWidthErr(0, -3) = %v, %v", got, err)
	}
}

func TestMapWidthBounded(t *testing.T) {
	// Track the peak number of simultaneously running jobs; it must not
	// exceed the requested width.
	const width, n = 3, 64
	var cur, peak atomic.Int64
	barrier := make(chan struct{})
	go func() { close(barrier) }()
	mapWidth(width, n, func(i int) int {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		<-barrier // give other workers a chance to overlap
		cur.Add(-1)
		return i
	})
	if p := peak.Load(); p > width {
		t.Fatalf("observed %d concurrent jobs, width %d", p, width)
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("job 3")
	for _, width := range []int{1, 4} {
		var ran atomic.Int64
		got, err := MapWidthErr(width, 10, func(i int) (int, error) {
			ran.Add(1)
			switch i {
			case 7:
				return 0, errors.New("job 7")
			case 3:
				return 0, wantErr
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3" {
			t.Fatalf("width %d: err = %v, want lowest-index error %v", width, err, wantErr)
		}
		// No cancellation: every job ran, and the successful results
		// are intact.
		if ran.Load() != 10 {
			t.Fatalf("width %d: ran %d of 10 jobs", width, ran.Load())
		}
		if got[5] != 5 {
			t.Fatalf("width %d: successful results lost: %v", width, got)
		}
	}
}

func TestPanicCarriesJobIndex(t *testing.T) {
	for _, width := range []int{2, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("width %d: panic swallowed", width)
				}
				msg := fmt.Sprint(r)
				// The lowest panicking index must be reported,
				// regardless of completion order.
				if !strings.Contains(msg, "par: job 2 panicked") || !strings.Contains(msg, "boom-2") {
					t.Fatalf("width %d: panic message %q lacks job index/value", width, msg)
				}
			}()
			mapWidth(width, 16, func(i int) int {
				if i >= 2 && i%2 == 0 {
					panic(fmt.Sprintf("boom-%d", i))
				}
				return i
			})
		}()
	}
}

func TestDefaultWidthIsGOMAXPROCS(t *testing.T) {
	// Indirect check: the fan-out must complete with more jobs than GOMAXPROCS
	// and produce ordered output (the pool drains the surplus).
	n := runtime.GOMAXPROCS(0)*4 + 1
	got := mapWidth(0, n, func(i int) int { return i })
	if len(got) != n || got[n-1] != n-1 {
		t.Fatalf("fan-out over %d jobs: %v", n, got)
	}
}

// TestSeedIsolationReproducible is the usage pattern the package exists
// for: each job derives its own RNG stream from (base seed, index), so the
// result is identical at any width.
func TestSeedIsolationReproducible(t *testing.T) {
	draw := func(width int) []uint64 {
		return mapWidth(width, 32, func(i int) uint64 {
			rng := sim.NewRNG(sim.StreamSeed(99, uint64(i)))
			var sum uint64
			for k := 0; k < 100; k++ {
				sum += rng.Uint64()
			}
			return sum
		})
	}
	ref := draw(1)
	for _, width := range []int{2, runtime.GOMAXPROCS(0), 16} {
		got := draw(width)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("width %d: job %d diverged from sequential reference", width, i)
			}
		}
	}
}

func TestNestedMap(t *testing.T) {
	// The grid/reps wiring nests one fan-out inside another; both levels
	// must stay index-ordered.
	got := mapWidth(4, 6, func(i int) []int {
		return mapWidth(4, 5, func(j int) int { return i*10 + j })
	})
	for i, row := range got {
		for j, v := range row {
			if v != i*10+j {
				t.Fatalf("nested out[%d][%d] = %d", i, j, v)
			}
		}
	}
}

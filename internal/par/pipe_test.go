package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mklite/internal/sim"
)

// settleGoroutines waits (briefly) for exiting goroutines to leave the
// count and returns the final value.
func settleGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestPipeFIFOStart pins the start order: with one worker held by a
// blocked job, the other worker must take the rest of the queue strictly in
// submission order.
func TestPipeFIFOStart(t *testing.T) {
	p := NewPipe[int](2)
	defer p.Close()
	started := make(chan int, 2)
	gates := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var blocked []*Future[int]
	for i := range gates {
		blocked = append(blocked, p.Submit(func() (int, error) {
			started <- i
			<-gates[i]
			return i, nil
		}))
	}
	<-started
	<-started // both workers are now busy

	var mu sync.Mutex
	var order []int
	var rest []*Future[int]
	for i := 2; i < 12; i++ {
		rest = append(rest, p.Submit(func() (int, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return i * i, nil
		}))
	}
	close(gates[0]) // free exactly one worker; job 1 keeps the other
	for k, f := range rest {
		if v, err := f.Wait(); err != nil || v != (k+2)*(k+2) {
			t.Fatalf("job %d: got %d, %v", k+2, v, err)
		}
	}
	close(gates[1])
	for i, f := range blocked {
		if v, _ := f.Wait(); v != i {
			t.Fatalf("blocked job %d returned %d", i, v)
		}
	}
	for k, i := range order {
		if i != k+2 {
			t.Fatalf("jobs started in order %v, want submission order 2..11", order)
		}
	}
}

// TestPipePanicOnWait: a job's panic is captured at every width, leaves
// the pool serving later jobs, and is re-raised by that job's Wait with
// its submission index.
func TestPipePanicOnWait(t *testing.T) {
	for _, width := range []int{1, 3} {
		p := NewPipe[int](width)
		var futs []*Future[int]
		for i := 0; i < 6; i++ {
			futs = append(futs, p.Submit(func() (int, error) {
				if i == 3 {
					panic("boom")
				}
				return i, nil
			}))
		}
		for i, f := range futs {
			if i == 3 {
				continue
			}
			if v, err := f.Wait(); err != nil || v != i {
				t.Fatalf("width %d: job %d = %d, %v", width, i, v, err)
			}
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "par: job 3 panicked: boom") {
					t.Fatalf("width %d: Wait re-raised %q, want job index and value", width, msg)
				}
			}()
			futs[3].Wait()
		}()
		p.Close()
	}
}

// TestPipeErrors: an error reaches exactly its own future.
func TestPipeErrors(t *testing.T) {
	wantErr := errors.New("job 2 failed")
	for _, width := range []int{1, 4} {
		p := NewPipe[int](width)
		var futs []*Future[int]
		for i := 0; i < 5; i++ {
			futs = append(futs, p.Submit(func() (int, error) {
				if i == 2 {
					return 0, wantErr
				}
				return i, nil
			}))
		}
		p.Close()
		for i, f := range futs {
			v, err := f.Wait()
			switch {
			case i == 2 && !errors.Is(err, wantErr):
				t.Fatalf("width %d: job 2 error = %v, want %v", width, err, wantErr)
			case i != 2 && (err != nil || v != i):
				t.Fatalf("width %d: job %d = %d, %v", width, i, v, err)
			}
		}
	}
}

// TestPipeCloseDrainsWithoutLeak: Close runs every queued job, stops the
// workers, and refuses further submissions.
func TestPipeCloseDrainsWithoutLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPipe[int](4)
	var ran atomic.Int64
	var futs []*Future[int]
	for i := 0; i < 64; i++ {
		futs = append(futs, p.Submit(func() (int, error) {
			time.Sleep(50 * time.Microsecond)
			ran.Add(1)
			return i, nil
		}))
	}
	p.Close()
	if n := ran.Load(); n != 64 {
		t.Fatalf("Close returned after %d of 64 jobs", n)
	}
	for i, f := range futs {
		if v, _ := f.Wait(); v != i {
			t.Fatalf("job %d = %d after Close", i, v)
		}
	}
	if n := settleGoroutines(before); n > before {
		t.Fatalf("%d goroutines after Close, %d before NewPipe", n, before)
	}
	p.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("Submit on a closed Pipe did not panic")
		}
	}()
	p.Submit(func() (int, error) { return 0, nil })
}

// TestPipeWidthOneInline: the sequential reference spawns nothing and has
// finished each job by the time Submit returns.
func TestPipeWidthOneInline(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPipe[int](1)
	defer p.Close()
	for i := 0; i < 8; i++ {
		done := false
		var during int
		f := p.Submit(func() (int, error) {
			during = runtime.NumGoroutine()
			done = true
			return i, nil
		})
		if !done {
			t.Fatalf("job %d had not run when Submit returned", i)
		}
		if during != before {
			t.Fatalf("job %d ran with %d goroutines, %d before NewPipe", i, during, before)
		}
		if v, _ := f.Wait(); v != i {
			t.Fatalf("job %d = %d", i, v)
		}
	}
}

// TestPipeStress is the race detector's view of the pool: 10k tiny
// seed-isolated jobs at width 4, results read back in submission order.
func TestPipeStress(t *testing.T) {
	const n = 10000
	p := NewPipe[uint64](4)
	defer p.Close()
	futs := make([]*Future[uint64], n)
	for i := range futs {
		futs[i] = p.Submit(func() (uint64, error) {
			return sim.NewRNG(sim.StreamSeed(5, uint64(i))).Uint64(), nil
		})
	}
	for i, f := range futs {
		got, err := f.Wait()
		if want := sim.NewRNG(sim.StreamSeed(5, uint64(i))).Uint64(); err != nil || got != want {
			t.Fatalf("job %d = %d, %v; want %d", i, got, err, want)
		}
	}
}

// Package par is mklite's sanctioned concurrency primitive: a bounded
// worker-pool fan-out over independent, index-addressed jobs.
//
// The simulation core promises that a run is a pure function of
// (model, seed); the mklint analyzers forbid bare goroutines in model code
// because Go's scheduler interleaving differs run to run. Parallelism is
// nevertheless the cheap speedup for the experiment harness — the paper's
// figures are sweeps of seed-isolated runs (8 apps x 3 kernels x node
// counts x repetitions) with no shared state at all. par confines the
// concurrency to exactly that shape:
//
//   - results are collected into a slice in job-index order, so the output
//     is independent of worker scheduling;
//   - every job must derive its own sim.RNG stream from the job seed
//     (sim.StreamSeed / RNG.Split) — sharing one RNG across jobs would both
//     race and make draw order scheduling-dependent. The mklint `parshare`
//     analyzer rejects closures that capture an outer RNG;
//   - a panic inside a job is captured and re-raised on the caller's
//     goroutine, annotated with the job index (the lowest panicking index,
//     deterministically, if several jobs fail);
//   - concurrency defaults to GOMAXPROCS and is overridable per call,
//     which the determinism tests use to compare widths 1, 2 and N.
//
// Pipe is the second shape: a persistent FIFO pool for a sequential driver
// (the facility scheduler's event loop) that submits jobs one at a time
// and reads each result back through a Future when its own logic needs it.
// The same closure contract holds, and the driver — not the workers'
// progress — decides when each result is read, so the pipeline is as
// width-independent as Map.
//
// par is the one package in the module allowed to spawn goroutines
// (enforced by the mklint `nogoroutine` analyzer); everything else funnels
// through it.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// jobPanic carries a captured panic out of a worker.
type jobPanic struct {
	index int
	value any
	stack []byte
}

// Map runs fn(i) for every i in [0, n) on a worker pool of GOMAXPROCS
// goroutines and returns the results in index order. fn must be
// self-contained per index: any randomness must come from a sim.RNG derived
// inside the closure from the job's own seed, never from a captured
// generator.
func Map[T any](n int, fn func(i int) T) []T {
	return MapWidth(0, n, fn)
}

// MapWidth is Map with an explicit pool width. A width of zero (or less)
// selects GOMAXPROCS; width 1 degenerates to a plain sequential loop, which
// the equivalence tests use as the reference execution.
func MapWidth[T any](width, n int, fn func(i int) T) []T {
	//mklint:ignore errdrop the adapter closure never returns a non-nil error
	out, _ := mapImpl(width, n, func(i int) (T, error) { return fn(i), nil })
	return out
}

// MapErr is the errgroup-style variant: fn may fail, and the first error —
// first by job index, not by completion time, so the result is
// deterministic — is returned after all jobs have run. Unlike errgroup
// there is no cancellation: jobs are independent by contract, and letting
// the remainder finish keeps the work performed identical run to run.
func MapErr[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapWidthErr(0, n, fn)
}

// MapWidthErr is MapErr with an explicit pool width (zero = GOMAXPROCS).
func MapWidthErr[T any](width, n int, fn func(i int) (T, error)) ([]T, error) {
	return mapImpl(width, n, fn)
}

func mapImpl[T any](width, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	if width > n {
		width = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	if width == 1 {
		// Sequential reference path: no goroutines at all, so a panic
		// propagates natively and `go test -race` has nothing to watch.
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
		return out, firstErr(errs)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex // guards pan
	var pan *jobPanic
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runJob(i, fn, out, errs, &mu, &pan)
			}
		}()
	}
	wg.Wait()
	if pan != nil {
		panic(fmt.Sprintf("par: job %d panicked: %v\n%s", pan.index, pan.value, pan.stack))
	}
	return out, firstErr(errs)
}

// runJob executes one job, capturing a panic rather than letting it kill
// the worker (which would deadlock the pool and lose the job index).
func runJob[T any](i int, fn func(i int) (T, error), out []T, errs []error, mu *sync.Mutex, pan **jobPanic) {
	defer func() {
		if r := recover(); r != nil {
			mu.Lock()
			if *pan == nil || i < (*pan).index {
				*pan = &jobPanic{index: i, value: r, stack: debug.Stack()}
			}
			mu.Unlock()
		}
	}()
	out[i], errs[i] = fn(i)
}

// firstErr returns the lowest-index error.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Pipe is a persistent FIFO worker pool for a sequential driver that
// submits jobs one at a time and collects each result later — the shape of
// an event loop that can keep deciding while earlier work runs. Jobs start
// in submission order; their results are read back through the Future that
// Submit returns, and the driver chooses when (and in which order) to
// Wait, so nothing about worker scheduling reaches it. The same closure
// contract as Map applies: a job must derive any randomness from its own
// seed and never touch the driver's state.
//
// Width 1 is the sequential reference: Submit runs the job inline on the
// caller's goroutine and spawns nothing. A panic inside a job is captured
// at every width and re-raised on Wait, annotated with the job's
// submission index, so a failure surfaces at the same point of the
// driver's loop whatever the width.
//
// A Pipe is owned by one driver goroutine: Submit, Wait and Close are not
// safe for concurrent use by several drivers. Close must be called (a
// deferred Close is the idiom); it runs every job still queued to
// completion and stops the workers.
type Pipe[T any] struct {
	width int

	mu     sync.Mutex
	cond   *sync.Cond // signals queue growth and close to idle workers
	queue  []*Future[T]
	closed bool
	next   int // submission index of the next job
	wg     sync.WaitGroup
}

// Future is one submitted job's pending result.
type Future[T any] struct {
	index int
	fn    func() (T, error)
	done  chan struct{}
	val   T
	err   error
	pan   *jobPanic
}

// NewPipe starts a pool of width workers (zero or less selects
// GOMAXPROCS; width 1 starts none and runs every job inline).
func NewPipe[T any](width int) *Pipe[T] {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	p := &Pipe[T]{width: width}
	p.cond = sync.NewCond(&p.mu)
	if width > 1 {
		p.wg.Add(width)
		for w := 0; w < width; w++ {
			go p.worker()
		}
	}
	return p
}

// Submit queues fn behind every earlier submission and returns its future.
// Submitting to a closed Pipe panics.
func (p *Pipe[T]) Submit(fn func() (T, error)) *Future[T] {
	f := &Future[T]{fn: fn, done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("par: Submit on a closed Pipe")
	}
	f.index = p.next
	p.next++
	if p.width == 1 {
		p.mu.Unlock()
		f.run()
		return f
	}
	p.queue = append(p.queue, f)
	p.mu.Unlock()
	p.cond.Signal()
	return f
}

// Close stops accepting jobs, lets the workers run the queue dry, and
// returns once they have exited. Futures stay readable afterwards. Close is
// idempotent.
func (p *Pipe[T]) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// worker takes jobs off the head of the queue until the Pipe is closed and
// drained.
func (p *Pipe[T]) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		f := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.mu.Unlock()
		f.run()
	}
}

// run executes the job, capturing a panic for Wait to re-raise.
func (f *Future[T]) run() {
	defer close(f.done)
	defer func() {
		if r := recover(); r != nil {
			f.pan = &jobPanic{index: f.index, value: r, stack: debug.Stack()}
		}
	}()
	fn := f.fn
	f.fn = nil // release the closure's captures once the job has run
	f.val, f.err = fn()
}

// Wait blocks until the job has run and returns its result, re-raising its
// panic (with the submission index) on the caller's goroutine.
func (f *Future[T]) Wait() (T, error) {
	<-f.done
	if f.pan != nil {
		panic(fmt.Sprintf("par: job %d panicked: %v\n%s", f.pan.index, f.pan.value, f.pan.stack))
	}
	return f.val, f.err
}

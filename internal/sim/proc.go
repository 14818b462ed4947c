package sim

import (
	"fmt"
	"iter"
)

// Proc is a cooperative simulation process: a coroutine whose execution is
// interleaved with the engine so that exactly one goroutine — either the
// engine loop or a single process — runs at any moment. Processes express
// protocols that are awkward as raw event callbacks (a thread that computes,
// blocks in a syscall, is woken by a message, computes again, ...).
//
// A process may only call its blocking methods (Sleep, WaitSignal, ...) from
// its own body; the engine resumes it by scheduling wake events.
type Proc struct {
	eng  *Engine
	name string
	// The body runs as an iter.Pull coroutine, so control passes by
	// direct switches rather than goroutine scheduling. resume runs it
	// until it blocks (true) or returns (false); stop unwinds it and
	// returns once its goroutine is gone. Both are nil until the start
	// event runs. suspend, called from inside the body, hands control
	// back; it reports false once the process has been killed.
	resume  func() (struct{}, bool)
	stop    func()
	suspend func(struct{}) bool
	done    bool
	killed  bool
}

// procKilled is the panic payload used to unwind a killed process.
type procKilled struct{ p *Proc }

// Spawn starts fn as a new process at the current virtual time (the process
// body begins executing when the engine processes the start event). The
// name is used in diagnostics only.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	e.procs[p] = e.procSeq
	e.procSeq++
	e.After(0, func() {
		p.resume, p.stop = iter.Pull(func(suspend func(struct{}) bool) {
			p.suspend = suspend
			p.run(fn)
		})
		p.dispatch()
	})
	return p
}

// run executes the body, absorbing the unwind of a kill.
func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if pk, ok := r.(procKilled); ok && pk.p == p {
				return // normal teardown of a killed process
			}
			// A real panic: iter.Pull re-raises it in the engine
			// goroutine, named after the process.
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}()
	fn(p)
}

// dispatch switches into the process until it blocks or finishes; a killed
// process is unwound instead. Either way the engine continues only once the
// process has yielded, and a finished process's goroutine no longer exists.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	if p.killed {
		p.stop()
	} else if _, blocked := p.resume(); blocked {
		return
	}
	p.done = true
	delete(p.eng.procs, p)
}

// yield hands control back to the engine and suspends until re-dispatched.
// It must only be called from the process body.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(procKilled{p: p})
	}
}

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Done reports whether the process body has returned or been killed.
func (p *Proc) Done() bool { return p.done }

// Kill marks the process for termination. The process unwinds the next time
// it would be resumed (immediately if it is currently blocked on an event
// that has not fired yet — the kill is delivered via a zero-delay event).
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	p.eng.After(0, func() { p.dispatch() })
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.After(d, func() { p.dispatch() })
	p.yield()
}

// Signal is a broadcast wake-up point for processes. The zero value is ready
// to use.
type Signal struct {
	waiters []*Proc
}

// WaitSignal suspends the process until s fires.
func (p *Proc) WaitSignal(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.yield()
}

// Fire wakes every process currently waiting on s, in wait order. Each wakes
// via its own zero-delay event at the current virtual time.
func (s *Signal) Fire(e *Engine) {
	waiters := s.waiters
	s.waiters = nil
	for _, w := range waiters {
		w := w
		e.After(0, func() { w.dispatch() })
	}
}

// Waiting returns the number of processes blocked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Mailbox is a FIFO rendezvous between processes: senders never block,
// receivers block while the box is empty.
type Mailbox struct {
	items   []any
	waiters []*Proc
}

// Send deposits v and wakes one waiting receiver, if any.
func (m *Mailbox) Send(e *Engine, v any) {
	m.items = append(m.items, v)
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		e.After(0, func() { w.dispatch() })
	}
}

// Recv blocks until an item is available, then removes and returns it.
func (p *Proc) Recv(m *Mailbox) any {
	for len(m.items) == 0 {
		m.waiters = append(m.waiters, p)
		p.yield()
	}
	v := m.items[0]
	m.items = m.items[1:]
	return v
}

// Len returns the number of queued items.
func (m *Mailbox) Len() int { return len(m.items) }

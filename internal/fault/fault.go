// Package fault is the deterministic fault-injection subsystem: a
// declarative Plan of what should go wrong during a run (straggler nodes,
// offload-channel stalls, fabric link loss, transient node failures, a
// Linux-side daemon storm) and the Injector that draws those faults — and
// nothing else — from seed-derived sim.StreamSeed streams.
//
// The design contract mirrors internal/trace, with the direction reversed:
//
//  1. Faults are deterministic. Every draw comes from the injector's own
//     SplitMix64 stream, derived from (job seed, stream id) with
//     sim.StreamSeed. The run's main RNG streams are never touched, so a
//     nil or empty Plan leaves every simulated output byte-identical to a
//     build without the fault subsystem — determinism_test.go enforces this
//     at fan-out widths 1 and GOMAXPROCS.
//  2. Injectors are per-run state. Like a *trace.Sink, an *Injector is
//     created next to the run's seed and must never be shared across
//     internal/par worker closures — mklint's parshare analyzer rejects the
//     capture.
//  3. Recovery is part of the model. Retries, backoff and degraded
//     completion happen in *virtual* time and are recorded through the
//     trace counters and metrics histograms like any other mechanism.
//
// See docs/FAULTS.md for the full fault model and its recovery semantics.
package fault

import (
	"fmt"
	"math"

	"mklite/internal/sim"
)

// Stream ids for sim.StreamSeed: each harness derives its injector stream
// from (job seed, stream id), so fault draws never collide with the model's
// own streams and the two harnesses' draws are independent of each other.
const (
	// StreamCluster seeds the analytic cluster harness's injector.
	StreamCluster uint64 = 0xfa171
	// StreamNode seeds the discrete-event node simulation's injector.
	StreamNode uint64 = 0xfa172
)

// Straggler pins one slow node: for a window of timesteps its local phase
// (compute + memory + heap) runs Factor times slower and absorbs an Extra
// detour per step — a failing DIMM, a thermally throttled socket, or a
// runaway local daemon. Because bulk-synchronous applications absorb the
// maximum over ranks at every collective, one straggler gates the whole
// job; the resilience experiment measures how that poisoning grows with
// node count.
type Straggler struct {
	// Node is the straggling node's index. A straggler whose index is
	// outside the job's node count is inactive, so one plan can sweep
	// node counts.
	Node int
	// Factor multiplies the node's local phase while active (1 = none).
	Factor float64
	// Extra is an additive per-step detour on the node while active.
	Extra sim.Duration
	// StartStep is the first affected timestep.
	StartStep int
	// Steps is the window length; <= 0 means until the end of the run.
	Steps int
}

// activeAt reports whether the straggler affects the given step of a job
// with the given node count.
func (s Straggler) activeAt(step, nodes int) bool {
	if s.Node < 0 || s.Node >= nodes || step < s.StartStep {
		return false
	}
	return s.Steps <= 0 || step < s.StartStep+s.Steps
}

// OffloadFault models a flaky syscall-offload channel (the McKernel proxy
// process or the mOS migration path): each offloaded call stalls with
// probability StallProb; a stalled call hangs until the LWK-side timeout
// fires after Stall, then is re-issued. Kernels that execute syscalls
// natively (Linux) never cross the channel and are immune.
type OffloadFault struct {
	// StallProb is the per-call stall probability.
	StallProb float64
	// Stall is the virtual time lost per stall before the re-issue
	// timeout fires.
	Stall sim.Duration
	// MaxRetries bounds re-issues per call in the discrete-event node
	// model; 0 selects DefaultMaxRetries. The analytic cluster harness
	// charges one re-issue per stall (re-stalls of a re-issue are a
	// second-order effect at realistic probabilities).
	MaxRetries int
}

// DefaultMaxRetries is the per-call re-issue bound when a policy leaves it
// zero.
const DefaultMaxRetries = 3

// retries returns the effective per-call re-issue bound.
func (o *OffloadFault) retries() int {
	if o.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return o.MaxRetries
}

// LinkFault degrades the fabric: each inter-node message is lost with
// probability LossProb and retransmitted after a timeout — the
// retransmitted payload pays the wire again. Collectives amplify the
// damage the same way they amplify noise: a lost message in a reduction
// stalls every rank waiting on it.
type LinkFault struct {
	// LossProb is the per-message loss probability.
	LossProb float64
	// Timeout is the retransmit timer: virtual time between the loss and
	// the resend hitting the wire.
	Timeout sim.Duration
	// MessageBytes is the payload size charged per retransmit; 0 selects
	// DefaultRetransmitBytes (a typical collective fragment).
	MessageBytes int64
}

// DefaultRetransmitBytes is the resent payload size when a plan leaves it
// zero.
const DefaultRetransmitBytes = 4096

// bytes returns the effective retransmit payload.
func (l *LinkFault) bytes() int64 {
	if l.MessageBytes <= 0 {
		return DefaultRetransmitBytes
	}
	return l.MessageBytes
}

// NodeFailure injects transient whole-node failures: during an attempt,
// each node fails independently with probability Prob, killing the job at
// a uniformly drawn timestep. The job-level RetryPolicy decides what
// happens next (re-execution with backoff, then degraded completion or a
// hard error).
type NodeFailure struct {
	// Prob is the per-node, per-attempt transient failure probability.
	Prob float64
	// FailFirst deterministically fails the first N attempts regardless
	// of Prob — the reproducible form the golden tests pin.
	FailFirst int
}

// DaemonStorm models the Linux side misbehaving: a monitoring or logging
// daemon going rogue. On Linux the storm runs on the application cores
// themselves (no core specialisation protects them) as an extra noise
// source; on the LWKs strong partitioning keeps application cores clean,
// but every offloaded syscall is serviced by the now-busy Linux cores and
// pays OffloadFactor on its round trip — the paper's isolation argument,
// exercised under stress.
type DaemonStorm struct {
	// Period is the mean interval between storm bursts.
	Period sim.Duration
	// Burst is the mean burst length.
	Burst sim.Duration
	// CV is the burst-length coefficient of variation (log-normal).
	CV float64
	// OffloadFactor multiplies offloaded syscall service on the LWKs
	// while the storm rages; values <= 1 leave offloads untouched.
	OffloadFactor float64
}

// RetryPolicy bounds job-level re-execution after transient node failures.
// Backoff is exponential in virtual time: attempt k waits
// min(Base << k, Max) before re-launching.
type RetryPolicy struct {
	// MaxRetries is the number of re-executions after the first failed
	// attempt; 0 selects DefaultMaxRetries.
	MaxRetries int
	// Base is the first backoff; 0 selects DefaultBackoffBase.
	Base sim.Duration
	// Max caps a single backoff; 0 selects DefaultBackoffMax.
	Max sim.Duration
}

// Default retry-policy values.
const (
	DefaultBackoffBase = 500 * sim.Millisecond
	DefaultBackoffMax  = 8 * sim.Second
)

// Backoff returns the bounded exponential backoff before retry attempt k
// (k = 0 for the first retry).
func (r RetryPolicy) Backoff(k int) sim.Duration {
	base := r.Base
	if base <= 0 {
		base = DefaultBackoffBase
	}
	maxB := r.Max
	if maxB <= 0 {
		maxB = DefaultBackoffMax
	}
	b := base
	for i := 0; i < k; i++ {
		b *= 2
		if b >= maxB {
			return maxB
		}
	}
	if b > maxB {
		b = maxB
	}
	return b
}

// maxRetries returns the effective job-level retry bound.
func (r RetryPolicy) maxRetries() int {
	if r.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return r.MaxRetries
}

// Plan is one run's declarative fault schedule. The zero value (and nil)
// injects nothing and costs nothing: the harnesses skip every fault branch
// when NewInjector returns nil.
type Plan struct {
	// Stragglers are the scheduled slow nodes.
	Stragglers []Straggler
	// Offload, when non-nil, makes the syscall-offload channel flaky.
	Offload *OffloadFault
	// Link, when non-nil, degrades the fabric.
	Link *LinkFault
	// NodeFail, when non-nil, injects transient node failures.
	NodeFail *NodeFailure
	// Storm, when non-nil, runs the Linux-side daemon storm.
	Storm *DaemonStorm
	// Retry bounds re-execution after node failures.
	Retry RetryPolicy
	// AllowDegraded completes the job on the surviving nodes once
	// retries are exhausted (a partial result, flagged as degraded)
	// instead of failing the run.
	AllowDegraded bool
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	if p == nil {
		return true
	}
	active := false
	for _, s := range p.Stragglers {
		if (s.Factor > 1 || s.Extra > 0) && s.Node >= 0 {
			active = true
		}
	}
	if p.Offload != nil && p.Offload.StallProb > 0 {
		active = true
	}
	if p.Link != nil && p.Link.LossProb > 0 {
		active = true
	}
	if p.NodeFail != nil && (p.NodeFail.Prob > 0 || p.NodeFail.FailFirst > 0) {
		active = true
	}
	if p.Storm != nil && p.Storm.Period > 0 && p.Storm.Burst > 0 {
		active = true
	}
	return !active
}

// Validate rejects plans whose parameters are outside the model's domain.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, s := range p.Stragglers {
		if s.Node < 0 {
			return fmt.Errorf("fault: straggler %d: negative node %d", i, s.Node)
		}
		if !finite(s.Factor) {
			return fmt.Errorf("fault: straggler %d: non-finite factor %g", i, s.Factor)
		}
		if s.Factor < 0 || (s.Factor != 0 && s.Factor < 1) {
			return fmt.Errorf("fault: straggler %d: factor %g must be 0 (unset) or >= 1", i, s.Factor)
		}
		if s.Extra < 0 {
			return fmt.Errorf("fault: straggler %d: negative extra detour %v", i, s.Extra)
		}
		if s.StartStep < 0 {
			return fmt.Errorf("fault: straggler %d: negative start step %d", i, s.StartStep)
		}
	}
	if o := p.Offload; o != nil {
		if !finite(o.StallProb) || o.StallProb < 0 || o.StallProb > 1 {
			return fmt.Errorf("fault: offload stall probability %g outside [0, 1]", o.StallProb)
		}
		if o.Stall < 0 {
			return fmt.Errorf("fault: negative offload stall %v", o.Stall)
		}
		if o.MaxRetries < 0 {
			return fmt.Errorf("fault: negative offload retry bound %d", o.MaxRetries)
		}
	}
	if l := p.Link; l != nil {
		if !finite(l.LossProb) || l.LossProb < 0 || l.LossProb >= 1 {
			return fmt.Errorf("fault: link loss probability %g outside [0, 1)", l.LossProb)
		}
		if l.Timeout < 0 {
			return fmt.Errorf("fault: negative link retransmit timeout %v", l.Timeout)
		}
		if l.MessageBytes < 0 {
			return fmt.Errorf("fault: negative link retransmit payload %d", l.MessageBytes)
		}
	}
	if n := p.NodeFail; n != nil {
		if !finite(n.Prob) || n.Prob < 0 || n.Prob > 1 {
			return fmt.Errorf("fault: node failure probability %g outside [0, 1]", n.Prob)
		}
		if n.FailFirst < 0 {
			return fmt.Errorf("fault: negative node FailFirst %d", n.FailFirst)
		}
	}
	if s := p.Storm; s != nil {
		if s.Period < 0 || s.Burst < 0 {
			return fmt.Errorf("fault: daemon storm with negative period or burst")
		}
		if !finite(s.CV) || !finite(s.OffloadFactor) {
			return fmt.Errorf("fault: daemon storm with non-finite CV %g or offload factor %g", s.CV, s.OffloadFactor)
		}
		if s.CV < 0 {
			return fmt.Errorf("fault: daemon storm with negative CV %g", s.CV)
		}
		if s.OffloadFactor < 0 {
			return fmt.Errorf("fault: daemon storm with negative offload factor %g", s.OffloadFactor)
		}
	}
	if p.Retry.MaxRetries < 0 {
		return fmt.Errorf("fault: negative retry bound %d", p.Retry.MaxRetries)
	}
	if p.Retry.Base < 0 || p.Retry.Max < 0 {
		return fmt.Errorf("fault: negative retry backoff")
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf. Every float a Plan
// carries must be: NaN fails every range comparison, so without this check
// a NaN probability or factor would pass validation and inject nothing.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// MaxRetries returns the job-level retry bound (with defaults applied); 0
// when the plan injects no node failures.
func (p *Plan) MaxRetries() int {
	if p == nil || p.NodeFail == nil {
		return 0
	}
	return p.Retry.maxRetries()
}

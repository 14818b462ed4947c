package fault

import (
	"math"

	"mklite/internal/sim"
)

// Injector is one run's live fault state: the plan plus the dedicated RNG
// stream the faults are drawn from. A nil *Injector is the fast path — every
// method is nil-receiver safe and returns "no fault" — so harnesses hold one
// unconditionally and the faults-off run never branches into fault code.
//
// Like a *trace.Sink, an Injector is per-run state: it must be created
// inside the par closure that owns the run and never captured from an
// enclosing scope (the parshare analyzer enforces this). Draws happen in
// simulation order on the run's single goroutine, so the fault sequence is a
// pure function of (plan, seed).
type Injector struct {
	plan *Plan
	rng  *sim.RNG

	// nodeFailOff is set once a degraded run drops its failed node:
	// re-failing the survivors could livelock the retry loop, and a lost
	// node's replacement hardware is assumed healthy for the remainder.
	nodeFailOff bool
}

// NewInjector builds the injector for a plan, seeded from its own
// sim.StreamSeed-derived stream (StreamCluster or StreamNode). An empty or
// nil plan returns nil: no injector, no draws, no cost — the byte-identity
// guarantee for faults-off runs.
func NewInjector(p *Plan, seed uint64) *Injector {
	if p.Empty() {
		return nil
	}
	return &Injector{plan: p, rng: sim.NewRNG(seed)}
}

// Active reports whether any faults will be injected.
func (in *Injector) Active() bool { return in != nil }

// --------------------------------------------------------------------------
// Stragglers

// stragglerDelay is one straggler's excess over the healthy local phase.
func stragglerDelay(s Straggler, local sim.Duration) sim.Duration {
	var d sim.Duration
	if s.Factor > 1 {
		d += local.Scale(s.Factor - 1)
	}
	return d + s.Extra
}

// StragglerExcess returns the step's worst per-node straggler excess: the
// extra time the slowest scheduled straggler needs beyond the healthy local
// phase `local`. Stragglers on the same node add (they are concurrent
// afflictions of one node); across nodes the bulk-synchronous sync absorbs
// only the maximum. Deterministic — no draws.
func (in *Injector) StragglerExcess(step, nodes int, local sim.Duration) sim.Duration {
	if in == nil || len(in.plan.Stragglers) == 0 {
		return 0
	}
	ss := in.plan.Stragglers
	var worst sim.Duration
	for i, s := range ss {
		if !s.activeAt(step, nodes) {
			continue
		}
		// Process each afflicted node once, at its first active entry.
		dup := false
		for j := 0; j < i; j++ {
			if ss[j].Node == s.Node && ss[j].activeAt(step, nodes) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		var total sim.Duration
		for j := i; j < len(ss); j++ {
			if ss[j].Node == s.Node && ss[j].activeAt(step, nodes) {
				total += stragglerDelay(ss[j], local)
			}
		}
		if total > worst {
			worst = total
		}
	}
	return worst
}

// --------------------------------------------------------------------------
// Offload-channel stalls

// OffloadStalls draws how many of `calls` offloaded syscalls stall this
// step (Poisson-approximated binomial — stalls are rare and independent)
// and returns the total timeout cost: each stall hangs for the plan's Stall
// before the re-issue succeeds. The analytic harness charges one re-issue
// per stall; re-stalling a re-issue is a StallProb² effect the discrete
// model covers.
func (in *Injector) OffloadStalls(calls int) (int, sim.Duration) {
	if in == nil {
		return 0, 0
	}
	o := in.plan.Offload
	if o == nil || o.StallProb <= 0 || calls <= 0 {
		return 0, 0
	}
	n := in.rng.Poisson(float64(calls) * o.StallProb)
	if n > calls {
		n = calls
	}
	return n, sim.Duration(n) * o.Stall
}

// OffloadStall draws one offloaded call's fate for the discrete-event node
// model: whether this issue stalls, and the timeout paid before re-issue.
func (in *Injector) OffloadStall() (sim.Duration, bool) {
	if in == nil {
		return 0, false
	}
	o := in.plan.Offload
	if o == nil || o.StallProb <= 0 {
		return 0, false
	}
	if !in.rng.Bool(o.StallProb) {
		return 0, false
	}
	return o.Stall, true
}

// OffloadRetries returns the per-call re-issue bound (0 when offload faults
// are off).
func (in *Injector) OffloadRetries() int {
	if in == nil || in.plan.Offload == nil {
		return 0
	}
	return in.plan.Offload.retries()
}

// --------------------------------------------------------------------------
// Link degradation

// LinkRetransmits draws how many of `msgs` fabric messages are lost this
// step and returns the total recovery delay: each loss waits out the
// retransmit timer and then pays `resend` (the wire time of the resent
// payload, from mpi.Comm.Retransmit) again.
func (in *Injector) LinkRetransmits(msgs float64, resend sim.Duration) (int, sim.Duration) {
	if in == nil {
		return 0, 0
	}
	l := in.plan.Link
	if l == nil || l.LossProb <= 0 || msgs <= 0 {
		return 0, 0
	}
	n := in.rng.Poisson(msgs * l.LossProb)
	if cap := int(msgs + 0.5); n > cap {
		n = cap
	}
	return n, sim.Duration(n) * (l.Timeout + resend)
}

// LinkBytes returns the retransmitted payload size (0 when link faults are
// off).
func (in *Injector) LinkBytes() int64 {
	if in == nil || in.plan.Link == nil {
		return 0
	}
	return in.plan.Link.bytes()
}

// --------------------------------------------------------------------------
// Transient node failures

// NodeFailure draws whether this attempt suffers a transient node failure,
// and if so which node dies at which step. The first FailFirst attempts
// fail deterministically (node and step rotate with the attempt) — the
// reproducible form the golden retry tests pin; beyond that each node fails
// independently with the plan's probability.
func (in *Injector) NodeFailure(attempt, nodes, steps int) (node, step int, failed bool) {
	if in == nil || in.nodeFailOff {
		return 0, 0, false
	}
	nf := in.plan.NodeFail
	if nf == nil || nodes <= 0 || steps <= 0 {
		return 0, 0, false
	}
	if attempt < nf.FailFirst {
		return attempt % nodes, steps / 2, true
	}
	if nf.Prob <= 0 {
		return 0, 0, false
	}
	// P(any of `nodes` independent nodes fails this attempt).
	pJob := 1 - math.Pow(1-nf.Prob, float64(nodes))
	if !in.rng.Bool(pJob) {
		return 0, 0, false
	}
	return in.rng.Intn(nodes), in.rng.Intn(steps), true
}

// DisableNodeFailures turns off further node-failure draws — called when a
// degraded run drops its failed node, so the surviving partition is
// guaranteed to terminate.
func (in *Injector) DisableNodeFailures() {
	if in != nil {
		in.nodeFailOff = true
	}
}

// MaxRetries returns the job-level re-execution bound (0 when node
// failures are off).
func (in *Injector) MaxRetries() int {
	if in == nil {
		return 0
	}
	return in.plan.MaxRetries()
}

// Backoff returns the virtual-time backoff before retry k.
func (in *Injector) Backoff(k int) sim.Duration {
	if in == nil {
		return 0
	}
	return in.plan.Retry.Backoff(k)
}

// AllowDegraded reports whether the plan permits completing on the
// surviving nodes after retries are exhausted.
func (in *Injector) AllowDegraded() bool {
	return in != nil && in.plan.AllowDegraded
}

// --------------------------------------------------------------------------
// Daemon storm

// Storm returns the plan's daemon storm (nil when off).
func (in *Injector) Storm() *DaemonStorm {
	if in == nil {
		return nil
	}
	return in.plan.Storm
}

// StormDuty returns the storm's duty cycle: the fraction of time a burst is
// in progress.
func (in *Injector) StormDuty() float64 {
	s := in.Storm()
	if s == nil || s.Period <= 0 || s.Burst <= 0 {
		return 0
	}
	return float64(s.Burst) / float64(s.Period+s.Burst)
}

// StormOffloadScale returns the LWK-side offload inflation under the storm:
// offloaded syscalls serviced by the busy Linux cores stretch by
// OffloadFactor for the storm's duty fraction of the time, averaging to
// 1 + duty*(factor-1). Returns 1 when the storm is off or harmless.
func (in *Injector) StormOffloadScale() float64 {
	s := in.Storm()
	if s == nil || s.OffloadFactor <= 1 {
		return 1
	}
	return 1 + in.StormDuty()*(s.OffloadFactor-1)
}

package cluster

import (
	"context"
	"fmt"

	"mklite/internal/apps"
	"mklite/internal/fault"
	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
	"mklite/internal/mpi"
	"mklite/internal/noise"
	"mklite/internal/sched"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// haloNeighborhood is the synchronisation scope of a halo exchange: a rank
// waits only for its stencil neighbours, so noise maxima are taken over a
// small neighbourhood instead of the whole job — the reason halo-bound
// applications (LAMMPS) show no Linux cliff.
const haloNeighborhood = 27

// laneMPI is the trace tid carrying per-collective skew instants, kept off
// the phase-span lane (tid 0) so each lane's timestamps stay monotone.
const laneMPI = 1

// stepParts is the single composition point for one timestep's duration.
// The hot loop's elapsed-time accumulation and every observer — the
// Breakdown, the StepRecord trace and the span emitter — all derive from
// this one struct, so trace output can never drift from simulated time.
type stepParts struct {
	compute sim.Duration
	memory  sim.Duration
	heap    sim.Duration
	syscall sim.Duration
	sched   sim.Duration
	comm    sim.Duration
	noise   sim.Duration
}

// total is the step's full duration — the only quantity the hot loop adds
// to elapsed.
func (p stepParts) total() sim.Duration {
	return p.compute + p.memory + p.heap + p.syscall + p.sched + p.comm + p.noise
}

// record converts the composition into the public per-step attribution.
func (p stepParts) record() StepRecord {
	return StepRecord{Compute: p.compute, Memory: p.memory, Heap: p.heap,
		Syscall: p.syscall, Sched: p.sched, Comm: p.comm, Noise: p.noise}
}

// addTo accumulates the composition into the run-level breakdown.
func (p stepParts) addTo(bd *Breakdown) {
	bd.Compute += p.compute
	bd.Memory += p.memory
	bd.Heap += p.heap
	bd.Syscall += p.syscall
	bd.Sched += p.sched
	bd.Comm += p.comm
	bd.Noise += p.noise
}

// emitSpans writes the step's phase timeline: a "step" span enclosing one
// child span per non-empty phase, laid out sequentially from start in the
// same order total() sums them. Because the spans are derived from the same
// stepParts the hot loop adds to elapsed, the enclosing span's end is
// exactly the simulated step end.
func (p stepParts) emitSpans(sink *trace.Sink, start sim.Time) {
	t := int64(start)
	sink.Begin(t, 0, 0, "step", "cluster")
	for _, ph := range []struct {
		name string
		d    sim.Duration
	}{
		{"compute", p.compute}, {"memory", p.memory}, {"heap", p.heap},
		{"syscall", p.syscall}, {"sched", p.sched}, {"comm", p.comm},
		{"noise", p.noise},
	} {
		if ph.d <= 0 {
			continue
		}
		sink.Begin(t, 0, 0, ph.name, "cluster")
		t += int64(ph.d)
		sink.End(t, 0, 0, ph.name, "cluster")
	}
	sink.End(int64(start)+int64(p.total()), 0, 0, "step", "cluster")
}

// runSteps executes the application's timestep loop. inj is this run's
// fault injector (nil when faults are off — the fast path adds one pointer
// test per site); stopStep, when >= 0, truncates the run at that step to
// model an attempt dying mid-flight, in which case the partial result
// carries the time-to-failure and the end-of-run metrics emission is
// skipped (only the surviving attempt reports phases and gauges).
func runSteps(ctx context.Context, k kernel.Kernel, j Job, comm *mpi.Comm, ns *nodeState, rng *sim.RNG, inj *fault.Injector, stopStep int) (Result, error) {
	app := j.App
	costs := k.Costs()
	prof := k.Noise()
	totalRanks := comm.Ranks()

	// Scheduler seam: the booted kernel's policy charges each step's
	// explicit overhead. The state's RNG stream is derived from the job
	// seed, never the run RNG, so the default (zero-charge) policies leave
	// the draw sequence — and the run output — untouched. Gang scheduling
	// additionally reshapes noise absorption: with every rank's windows
	// aligned, a detour at a synchronisation point is absorbed inside one
	// shared window instead of max-combined across ranks.
	pol := k.Sched()
	schedSt := pol.NewState(sim.StreamSeed(j.Seed, sched.StreamState))
	gangAligned := pol.Kind() == sched.Gang

	sink := j.Sink
	counting := sink.Counting()
	eventing := sink.Eventing()
	observing := sink.Observing()

	// Wire costs are identical every step; precompute.
	var haloWire sim.Duration
	var haloMsgs float64
	haloRounds := 0
	if app.Halo != nil {
		if h := app.Halo(j.Nodes); h != nil && h.Rounds > 0 {
			res := comm.HaloExchange(h.Bytes, h.Neighbors)
			haloWire = res.Time * sim.Duration(h.Rounds)
			haloMsgs = res.Messages * float64(h.Rounds)
			haloRounds = h.Rounds
		}
	}
	type collRun struct {
		every int
		wire  sim.Duration
		msgs  float64
	}
	// Collectives that run every step contribute identically each
	// iteration; fold them into static per-step totals so the step loop
	// only re-evaluates the periodic ones.
	var colls []collRun
	var everyStepMsgs float64
	var everyStepWire sim.Duration
	everyStepColls := 0
	if app.Colls != nil {
		for _, c := range app.Colls(j.Nodes) {
			every := c.Every
			if every <= 0 {
				every = 1
			}
			var res mpi.CollResult
			switch c.Kind {
			case apps.CollBcast:
				res = comm.Bcast(c.Bytes)
			case apps.CollAllgather:
				res = comm.Allgather(c.Bytes)
			case apps.CollAlltoall:
				res = comm.Alltoall(c.Bytes)
			default:
				res = comm.Allreduce(c.Bytes)
			}
			if every == 1 {
				everyStepMsgs += res.Messages
				everyStepWire += res.Time
				everyStepColls++
				continue
			}
			colls = append(colls, collRun{every: every, wire: res.Time, msgs: res.Messages})
		}
	}

	// Deterministic per-rank, per-step syscall overheads.
	factor := app.DeviceSyscallFactor
	if factor == 0 {
		factor = 1
	}
	dsPerMsg := j.Fabric.SyscallsPerMessage * factor
	ioctlTime := k.SyscallTime(kernel.SysIoctl)
	yieldTime := k.SyscallTime(kernel.SysSchedYield)
	brkTime := k.SyscallTime(kernel.SysBrk)

	cpuTime := stepCompute(app, j.Nodes)

	// When core 0 belongs to the application (no core specialisation —
	// the 68-core configuration the paper's section III-A discusses),
	// the rank on it absorbs the system services' detours and, being the
	// slowest, gates every synchronisation.
	core0Hosted := false
	for _, c := range k.Partition().AppCores {
		if c == 0 {
			core0Hosted = true
			break
		}
	}

	var bd Breakdown
	var res0Steps []StepRecord
	bd.SetupShm = ns.shmFault
	elapsed := ns.shmFault
	if eventing && ns.shmFault > 0 {
		sink.Begin(0, 0, 0, "shm-fault", "cluster")
		sink.End(int64(ns.shmFault), 0, 0, "shm-fault", "cluster")
	}

	// The brk trace depends only on the node count: one lookup serves
	// every rank of every step. (Calling it inside the per-rank loop was
	// the harness's own hot-path bug — ranks x timesteps rebuilds of an
	// identical slice.)
	var heapOps []int64
	if app.HeapOpsPerStep != nil {
		heapOps = app.HeapOpsPerStep(j.Nodes)
	}

	ioctlOffloaded := k.Table().Get(kernel.SysIoctl) == kernel.Offloaded

	// Fault-layer precomputation: the resend wire time for a degraded
	// link, and the LWK-side offload inflation while a daemon storm
	// rages. Both are invariant across steps.
	var linkResend sim.Duration
	stormScale := 1.0
	if inj.Active() {
		linkResend = comm.Retransmit(inj.LinkBytes())
		if ioctlOffloaded {
			stormScale = inj.StormOffloadScale()
		}
	}
	// A straggler's excess is absorbed at the next synchronisation point;
	// steps without one let it accumulate (the healthy nodes run ahead
	// until something makes them wait).
	var stragglerPending sim.Duration

	steps := app.Timesteps
	if stopStep >= 0 && stopStep < steps {
		steps = stopStep
	}
	if j.Trace {
		res0Steps = make([]StepRecord, 0, steps)
	}

	// Steady-state memoization of the heap replay. A step whose replay
	// issued only kernel crossings (no faults, mappings, zeroing,
	// allocation or freeing) and whose break returned to its starting
	// offset left the heap engine — and the physical allocator behind it
	// — in exactly its pre-step state, so every later step replays
	// identically; its cost is cached and the replay skipped. The LWK
	// heaps reach this state right after their initial over-reserving
	// growth; the Linux heap never does (shrink frees pages, so each
	// balanced cycle faults anew) and keeps paying full price — which is
	// its cost model. Rank 0 is always replayed so Result.HeapStats keeps
	// exact whole-run accounting. A cost of -1 marks "not steady yet".
	//
	// When counting, the per-call counter emission inside Sbrk/TouchUpTo
	// is part of the contract, so the first replay after a rank goes
	// steady emits into a private counter set (then merged into the
	// run's) that holds exactly one steady step's counts; every skipped
	// step owes those counts again, and they are paid after the loop. A
	// steady step only adds: it never raises the heap's peak, so it emits
	// no max-style counter that a merge would sum.
	type heapMemo struct {
		cost   sim.Duration
		counts *trace.Counters // one steady step's counts; nil until captured
		owed   int64           // skipped steps whose counts are not yet merged
	}
	var memo []heapMemo
	if heapOps != nil {
		memo = make([]heapMemo, len(ns.heaps))
		for i := range memo {
			memo[i].cost = -1
		}
	}

	for step := 0; step < steps; step++ {
		if step&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("cluster: cancelled at step %d: %w", step, err)
			}
		}
		stepStart := sim.Time(elapsed)

		// Heap activity: every rank replays the per-step brk trace on
		// its own heap engine (columnar slice — the loop body touches no
		// rankState); the slowest rank gates the node.
		var heapMax sim.Duration
		if heapOps != nil {
			for ri, h := range ns.heaps {
				m := &memo[ri]
				if m.cost >= 0 && (!counting || m.counts != nil) {
					if m.cost > heapMax {
						heapMax = m.cost
					}
					if observing {
						sink.ObserveRank("heap.cost_ns", ri, int64(m.cost))
					}
					m.owed++
					continue
				}
				capture := m.cost >= 0
				if capture {
					m.counts = trace.NewCounters()
					ns.ranks[ri].as.SetSink(trace.NewSinkObs(m.counts, sink.Events(), sink.Observer()))
				}
				sizeBefore := h.Size()
				var cost sim.Duration
				var work mem.Work
				for _, delta := range heapOps {
					cost += brkTime
					if _, w, err := h.Sbrk(delta); err == nil {
						work.Accumulate(w)
					}
					if delta > 0 {
						// The application uses what it just
						// allocated before the next call —
						// first touch happens here.
						work.Accumulate(h.TouchUpTo(h.Size()))
					}
				}
				cost += costs.WorkTime(work)
				if capture {
					ns.ranks[ri].as.SetSink(sink)
					sink.Counters().Merge(m.counts)
				}
				if cost > heapMax {
					heapMax = cost
				}
				if observing {
					sink.ObserveRank("heap.cost_ns", ri, int64(cost))
				}
				if ri != 0 && h.Size() == sizeBefore && work.PureSyscall() {
					m.cost = cost
				}
			}
			if counting {
				sink.CountKey(trace.KeySyscallBrk, int64(len(heapOps)*len(ns.ranks)))
			}
		}

		// Per-step message-driven device syscalls and spin waiting.
		msgs := haloMsgs + everyStepMsgs
		collWire := everyStepWire
		collsDue := everyStepColls
		for _, c := range colls {
			if step%c.every == 0 {
				msgs += c.msgs
				collWire += c.wire
				collsDue++
			}
		}
		sysTime := sim.DurationOf(msgs*dsPerMsg*ioctlTime.Seconds()) +
			sim.DurationOf(float64(app.SchedYieldsPerStep)*yieldTime.Seconds())
		if counting {
			devCalls := int64(msgs * dsPerMsg)
			sink.CountKey(trace.KeyFabricMessages, int64(msgs))
			sink.CountKey(trace.KeyFabricDevSyscalls, devCalls)
			sink.CountKey(trace.KeySyscallIoctl, devCalls)
			sink.CountKey(trace.KeySyscallSchedYield, int64(app.SchedYieldsPerStep))
			if ioctlOffloaded && devCalls > 0 {
				// Every device-file call on the comm path pays the
				// kernel's IKC/migration round trip.
				sink.CountKey(trace.KeyOffloadCalls, devCalls)
				sink.CountKey(trace.KeyOffloadRTTNs, devCalls*int64(costs.OffloadRTT))
			}
		}

		// Fault layer: a flaky offload channel stalls calls until the
		// re-issue timeout, and a daemon storm inflates the round trip
		// (LWKs only — Linux executes natively and never crosses the
		// channel); a degraded link loses messages, each waiting out the
		// retransmit timer and paying the wire again.
		var linkDelay sim.Duration
		if inj.Active() {
			if ioctlOffloaded {
				if stalls, stallTime := inj.OffloadStalls(int(msgs * dsPerMsg)); stalls > 0 {
					sysTime += stallTime
					if counting {
						sink.CountKey(trace.KeyFaultOffloadStalls, int64(stalls))
						sink.CountKey(trace.KeyFaultOffloadStallNs, int64(stallTime))
					}
				}
				if stormScale > 1 {
					extra := sim.DurationOf(msgs * dsPerMsg * costs.OffloadRTT.Seconds() * (stormScale - 1))
					sysTime += extra
					if counting {
						sink.CountKey(trace.KeyFaultStormOffloadNs, int64(extra))
					}
				}
			}
			if n, d := inj.LinkRetransmits(msgs, linkResend); n > 0 {
				linkDelay = d
				if counting {
					sink.CountKey(trace.KeyFaultLinkRetransmits, int64(n))
					sink.CountKey(trace.KeyFaultLinkDelayNs, int64(d))
				}
			}
		}

		// The slowest rank's local phase gates the node (ranks differ
		// only in memory placement); placement is fixed after setup, so
		// the maximum was hoisted out of the step loop entirely.
		memMax := ns.memMax
		base := cpuTime + memMax + heapMax + sysTime

		// Explicit scheduling overhead for this step's busy time. Zero
		// under the default disciplines (their cost is embedded in the
		// calibrated noise/cost model); rr/gang/adaptive charge deltas.
		schedCost := schedSt.Step(base)
		if counting {
			if schedCost.Switches > 0 {
				sink.CountKey(trace.KeySchedSwitches, schedCost.Switches)
			}
			if schedCost.Ticks > 0 {
				sink.CountKey(trace.KeySchedTicks, schedCost.Ticks)
			}
			if schedCost.Adjusted > 0 {
				sink.CountKey(trace.KeySchedQuantumAdjust, schedCost.Adjusted)
			}
			if schedCost.GangSlack > 0 {
				sink.CountKey(trace.KeySchedGangSlackNs, int64(schedCost.GangSlack))
			}
		}

		// Fault layer: a straggler's excess over the healthy local phase
		// is absorbed by the whole job at the step's synchronisation
		// point — the max-over-ranks semantics that let one slow node
		// poison a collective. Sync-free steps let it accumulate until
		// something makes the healthy nodes wait.
		var stragglerAbs sim.Duration
		if inj.Active() {
			stragglerPending += inj.StragglerExcess(step, j.Nodes, base)
			if stragglerPending > 0 && (collsDue > 0 || haloWire > 0) {
				stragglerAbs = stragglerPending
				stragglerPending = 0
				if counting {
					sink.CountKey(trace.KeyFaultStragglerNs, int64(stragglerAbs))
				}
				if observing {
					sink.Observe("fault.straggler_ns", int64(stragglerAbs))
				}
			}
		}

		// Interference: global collectives absorb the worst detour of
		// the whole job; halo exchanges only a neighbourhood's. A step
		// that has both synchronises twice — the halo at the stencil
		// boundary and the collective at the reduction — and each sync
		// point absorbs its own worst detour, so the detours compose
		// additively (they are maxima over disjoint waiting windows of
		// the same step, not alternatives; previously the halo share
		// was silently dropped whenever a collective was due).
		var detour sim.Duration
		for i := 0; i < collsDue; i++ {
			var d sim.Duration
			maxRank := -1
			if gangAligned {
				// Aligned gang windows: every rank's detours land in
				// the same co-scheduling window, so the collective
				// absorbs one rank's worth of interference instead of
				// the max over all ranks (no single straggling rank —
				// max_rank is reported as -1).
				d = prof.DetourInTo(rng, 1, base, sink)
			} else {
				d, maxRank = noise.MaxDetourRank(rng, prof, totalRanks, base)
			}
			detour += d
			if counting {
				sink.CountKey(trace.KeyMPICollectives, 1)
				sink.CountKey(trace.KeyNoiseCollectiveMaxNs, int64(d))
			}
			if observing {
				sink.Observe("noise.collective_max_ns", int64(d))
			}
			if eventing {
				sink.Instant(int64(stepStart), 0, laneMPI, "collective", "mpi",
					map[string]int64{"step": int64(step), "max_rank": int64(maxRank),
						"skew_ns": int64(d)})
			}
		}
		if haloWire > 0 {
			var d sim.Duration
			if gangAligned {
				// Same alignment argument as the collective path, over
				// the stencil neighbourhood.
				d = prof.DetourInTo(rng, 1, base, sink)
			} else {
				nb := haloNeighborhood
				if nb > totalRanks {
					nb = totalRanks
				}
				d, _ = noise.MaxDetourRank(rng, prof, nb, base)
			}
			detour += d
			if counting {
				sink.CountKey(trace.KeyMPIHaloExchanges, int64(haloRounds))
				sink.CountKey(trace.KeyNoiseHaloMaxNs, int64(d))
			}
			if observing {
				sink.Observe("noise.halo_max_ns", int64(d))
			}
		}
		if collsDue == 0 && haloWire == 0 {
			// No synchronisation: only the rank's own detour counts.
			detour = prof.DetourInTo(rng, 1, base, sink)
		}
		if core0Hosted {
			if d0 := prof.DetourInTo(rng, 0, base, sink); d0 > detour {
				detour = d0
			}
		}

		parts := stepParts{compute: cpuTime, memory: memMax, heap: heapMax,
			syscall: sysTime, sched: schedCost.Overhead,
			comm:  haloWire + collWire + linkDelay,
			noise: detour + stragglerAbs}
		if counting {
			sink.CountKey(trace.KeyNoiseDetourNs, int64(detour))
		}
		if observing {
			sink.Observe("noise.detour_ns", int64(detour))
			sink.Observe("step.total_ns", int64(parts.total()))
			sink.Observe("fabric.step_messages", int64(msgs))
		}
		if eventing {
			parts.emitSpans(sink, stepStart)
		}
		elapsed += parts.total()
		if j.Trace {
			res0Steps = append(res0Steps, parts.record())
		}
		parts.addTo(&bd)
	}

	for _, m := range memo {
		if m.owed > 0 && m.counts != nil {
			sink.Counters().MergeScaled(m.counts, m.owed)
		}
	}

	if stragglerPending > 0 {
		// The run ends with the job waiting out the straggler one last
		// time (no further sync point absorbed it).
		elapsed += stragglerPending
		bd.Noise += stragglerPending
		if counting {
			sink.CountKey(trace.KeyFaultStragglerNs, int64(stragglerPending))
		}
	}

	if observing && stopStep < 0 {
		// One accumulation per run, derived from the same Breakdown the
		// results report — the phase table cannot drift from simulated
		// time.
		sink.Phase("compute", int64(bd.Compute))
		sink.Phase("memory", int64(bd.Memory))
		sink.Phase("heap", int64(bd.Heap))
		sink.Phase("syscall", int64(bd.Syscall))
		if bd.Sched > 0 {
			// Guarded: a default-policy run's metrics table is
			// byte-identical to the pre-policy simulator's.
			sink.Phase("sched", int64(bd.Sched))
		}
		sink.Phase("comm", int64(bd.Comm))
		sink.Phase("noise", int64(bd.Noise))
		sink.Phase("setup.shm", int64(bd.SetupShm))
		sink.Gauge("cluster.ranks", int64(totalRanks))
		sink.Gauge("cluster.timesteps", int64(app.Timesteps))
	}

	work := app.WorkPerStepPerNode(j.Nodes) * float64(app.Timesteps)
	fom := 0.0
	if elapsed > 0 {
		fom = work / elapsed.Seconds()
		if !app.PerNode {
			fom *= float64(j.Nodes)
		}
	}
	// An empty-rank job (a zero-rank app spec) has no heap to report;
	// indexing ranks[0] unconditionally panicked here.
	var heapStats mem.HeapStats
	if len(ns.ranks) > 0 {
		heapStats = ns.ranks[0].heap.Stats()
	}
	return Result{
		Elapsed:     elapsed,
		FOM:         fom,
		Setup:       ns.setup,
		Breakdown:   bd,
		HeapStats:   heapStats,
		MCDRAMBytes: mcdramResidency(ns),
		DemandRanks: countDemandRanks(ns),
		Steps:       res0Steps,
	}, nil
}

func mcdramResidency(ns *nodeState) int64 {
	var total int64
	for _, rs := range ns.ranks {
		total += rs.as.BytesByKind()[hw.MCDRAM]
	}
	return total
}

func countDemandRanks(ns *nodeState) int {
	n := 0
	for _, rs := range ns.ranks {
		if rs.ws.DemandActive {
			n++
		}
	}
	return n
}

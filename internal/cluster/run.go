package cluster

import (
	"context"
	"fmt"

	"mklite/internal/fault"
	"mklite/internal/noise"
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

// runSteps executes the application's timestep loop against the image,
// drawing from rng and emitting into sink; schedSeed seeds the scheduler
// state. inj is this run's fault injector (nil when faults are off — the
// fast path adds one pointer test per site); stopStep, when >= 0,
// truncates the run at that step to model an attempt dying mid-flight, in
// which case the partial result carries the time-to-failure and the
// end-of-run metrics emission is skipped (only the surviving attempt
// reports phases and gauges).
func (img *Image) runSteps(ctx context.Context, schedSeed uint64, sink *trace.Sink, rng *sim.RNG, inj *fault.Injector, stopStep int) (Result, error) {
	j, k, comm := img.j, img.k, img.comm
	app := j.App
	costs := k.Costs()
	prof := img.prof.CloneTables(img.tables(app.Timesteps))
	totalRanks := comm.Ranks()
	plan := &img.plan

	// Scheduler seam: the image's policy charges each step's
	// explicit overhead. The state's RNG stream is derived from the job
	// seed, never the run RNG, so the default (zero-charge) policies leave
	// the draw sequence — and the run output — untouched. Gang scheduling
	// additionally reshapes noise absorption: with every rank's windows
	// aligned, a detour at a synchronisation point is absorbed inside one
	// shared window instead of max-combined across ranks.
	schedSt := img.pol.NewState(schedSeed)

	counting := sink.Counting()
	eventing := sink.Eventing()
	observing := sink.Observing()

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
	bd.SetupShm = img.shmFault
	elapsed := img.shmFault
	if eventing && img.shmFault > 0 {
		sink.Begin(0, 0, 0, "shm-fault", "cluster")
		sink.End(int64(img.shmFault), 0, 0, "shm-fault", "cluster")
	}

	// Fault-layer precomputation: the resend wire time for a degraded
	// link, invariant across steps.
	var linkResend sim.Duration
	if inj.Active() {
		linkResend = comm.Retransmit(inj.LinkBytes())
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

	for step := 0; step < steps; step++ {
		if step&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("cluster: cancelled at step %d: %w", step, err)
			}
		}
		stepStart := sim.Time(elapsed)

		// The step's seed-free timing: compute, memory, the slowest
		// rank's brk replay (played from the image's record of the heap
		// phase), message-driven device syscalls and spin waiting.
		win := img.window(step)
		if heap := &img.heap; len(heap.steps) > 0 {
			heap.emit(step, sink)
			if counting {
				sink.CountKey(trace.KeySyscallBrk, heap.brkCalls)
			}
		}
		msgs, collWire, collsDue := win.msgs, win.collWire, win.collsDue
		heapMax, sysTime, base := win.heap, win.sys, win.base
		dsPerMsg := plan.dsPerMsg
		if counting {
			devCalls := int64(msgs * dsPerMsg)
			sink.CountKey(trace.KeyFabricMessages, int64(msgs))
			sink.CountKey(trace.KeyFabricDevSyscalls, devCalls)
			sink.CountKey(trace.KeySyscallIoctl, devCalls)
			sink.CountKey(trace.KeySyscallSchedYield, int64(app.SchedYieldsPerStep))
			if plan.ioctlOffloaded && devCalls > 0 {
				// Every device-file call on the comm path pays the
				// kernel's IKC/migration round trip.
				sink.CountKey(trace.KeyOffloadCalls, devCalls)
				sink.CountKey(trace.KeyOffloadRTTNs, devCalls*int64(costs.OffloadRTT))
			}
		}

		// Fault layer: a flaky offload channel stalls calls until the
		// re-issue timeout — seeded time, which joins the step's window
		// here — and a daemon storm inflates the round trip (LWKs only —
		// Linux executes natively and never crosses the channel; the
		// window holds the inflation); a degraded link loses messages,
		// each waiting out the retransmit timer and paying the wire
		// again.
		var linkDelay sim.Duration
		if inj.Active() {
			if plan.ioctlOffloaded {
				if stalls, stallTime := inj.OffloadStalls(int(msgs * dsPerMsg)); stalls > 0 {
					sysTime += stallTime
					base += stallTime
					if counting {
						sink.CountKey(trace.KeyFaultOffloadStalls, int64(stalls))
						sink.CountKey(trace.KeyFaultOffloadStallNs, int64(stallTime))
					}
				}
				if counting && plan.stormScale > 1 {
					sink.CountKey(trace.KeyFaultStormOffloadNs, int64(win.stormExtra))
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
			if stragglerPending > 0 && (collsDue > 0 || plan.haloWire > 0) {
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
			if plan.gangAligned {
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
		if plan.haloWire > 0 {
			var d sim.Duration
			if plan.gangAligned {
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
				sink.CountKey(trace.KeyMPIHaloExchanges, int64(plan.haloRounds))
				sink.CountKey(trace.KeyNoiseHaloMaxNs, int64(d))
			}
			if observing {
				sink.Observe("noise.halo_max_ns", int64(d))
			}
		}
		if collsDue == 0 && plan.haloWire == 0 {
			// No synchronisation: only the rank's own detour counts.
			detour = prof.DetourInTo(rng, 1, base, sink)
		}
		if core0Hosted {
			if d0 := prof.DetourInTo(rng, 0, base, sink); d0 > detour {
				detour = d0
			}
		}

		// The slowest rank's local phase gates the node (ranks differ
		// only in memory placement); placement is fixed after setup, so
		// the image holds the maximum.
		parts := stepParts{compute: plan.cpuTime, memory: img.memMax, heap: heapMax,
			syscall: sysTime, sched: schedCost.Overhead,
			comm:  plan.haloWire + collWire + linkDelay,
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

	img.heap.finish(steps, sink)

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

	acct := img.heap.acct(app.Timesteps)
	work := app.WorkPerStepPerNode(j.Nodes) * float64(app.Timesteps)
	fom := 0.0
	if elapsed > 0 {
		fom = work / elapsed.Seconds()
		if !app.PerNode {
			fom *= float64(j.Nodes)
		}
	}
	return Result{
		Elapsed:     elapsed,
		FOM:         fom,
		Setup:       img.setup,
		Breakdown:   bd,
		HeapStats:   acct.heap,
		MCDRAMBytes: acct.mcdram,
		DemandRanks: img.demandRanks,
		Steps:       res0Steps,
	}, nil
}

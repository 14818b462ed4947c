package cluster

import (
	"slices"

	"mklite/internal/apps"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/mpi"
	"mklite/internal/sim"
)

// stepPlan is what every step takes from the job and the booted node
// without a draw: wire costs, message counts and syscall times. Prepare
// computes it once per image.
type stepPlan struct {
	cpuTime sim.Duration
	// haloWire, haloMsgs and haloRounds are one step's halo exchange.
	haloWire   sim.Duration
	haloMsgs   float64
	haloRounds int
	// Collectives that run every step contribute identically each
	// iteration and are folded into static per-step totals; colls holds
	// the periodic ones.
	colls          []collRun
	everyStepMsgs  float64
	everyStepWire  sim.Duration
	everyStepColls int
	// dsPerMsg is the device syscalls per message; ioctlTime and
	// yieldTime the kernel's syscall times.
	dsPerMsg             float64
	ioctlTime, yieldTime sim.Duration
	yields               int
	// ioctlOffloaded is set when device syscalls cross the offload
	// channel; stormScale is then the daemon storm's offload inflation
	// (1 without a storm) of the round trip offloadRTT.
	ioctlOffloaded bool
	stormScale     float64
	offloadRTT     sim.Duration
	// gangAligned is set when gang scheduling aligns every rank's
	// windows, so synchronisation points take one rank's detour instead
	// of a max over ranks. The image's policy sets it (setPolicy).
	gangAligned bool
}

// collRun is one periodic collective's per-step cost.
type collRun struct {
	every int
	wire  sim.Duration
	msgs  float64
}

func newStepPlan(j Job, k kernel.Kernel, comm *mpi.Comm) stepPlan {
	app := j.App
	pl := stepPlan{cpuTime: stepCompute(app, j.Nodes), stormScale: 1}
	if app.Halo != nil {
		if h := app.Halo(j.Nodes); h != nil && h.Rounds > 0 {
			res := comm.HaloExchange(h.Bytes, h.Neighbors)
			pl.haloWire = res.Time * sim.Duration(h.Rounds)
			pl.haloMsgs = res.Messages * float64(h.Rounds)
			pl.haloRounds = h.Rounds
		}
	}
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
				pl.everyStepMsgs += res.Messages
				pl.everyStepWire += res.Time
				pl.everyStepColls++
				continue
			}
			pl.colls = append(pl.colls, collRun{every: every, wire: res.Time, msgs: res.Messages})
		}
	}
	factor := app.DeviceSyscallFactor
	if factor == 0 {
		factor = 1
	}
	pl.dsPerMsg = j.Fabric.SyscallsPerMessage * factor
	pl.ioctlTime = k.SyscallTime(kernel.SysIoctl)
	pl.yieldTime = k.SyscallTime(kernel.SysSchedYield)
	pl.yields = app.SchedYieldsPerStep
	pl.ioctlOffloaded = k.Table().Get(kernel.SysIoctl) == kernel.Offloaded
	pl.offloadRTT = k.Costs().OffloadRTT
	if pl.ioctlOffloaded {
		// The storm's offload inflation is a function of the plan alone;
		// the injector's seed is never drawn from here.
		if inj := fault.NewInjector(j.Faults, 0); inj.Active() {
			pl.stormScale = inj.StormOffloadScale()
		}
	}
	return pl
}

// stepWindow is one step's seed-free timing.
type stepWindow struct {
	// msgs, collWire and collsDue are the step's messages, collective
	// wire time and collectives due.
	msgs     float64
	collWire sim.Duration
	collsDue int
	// heap is the slowest rank's heap cost; sys the message-driven
	// device syscalls, yields and the storm's offload inflation, of
	// which stormExtra is the inflation.
	heap, sys, stormExtra sim.Duration
	// base is compute + memory + heap + sys: the window a step's noise
	// is drawn over, before any seeded fault time joins it.
	base sim.Duration
}

// window returns step's seed-free timing. Prepare tabulates the noise
// profile at the windows it returns and runSteps draws over them, so the
// two cannot drift apart.
func (img *Image) window(step int) stepWindow {
	pl := &img.plan
	w := stepWindow{msgs: pl.haloMsgs + pl.everyStepMsgs, collWire: pl.everyStepWire,
		collsDue: pl.everyStepColls}
	for _, c := range pl.colls {
		if step%c.every == 0 {
			w.msgs += c.msgs
			w.collWire += c.wire
			w.collsDue++
		}
	}
	w.heap = img.heap.cost(step)
	w.sys = sim.DurationOf(w.msgs*pl.dsPerMsg*pl.ioctlTime.Seconds()) +
		sim.DurationOf(float64(pl.yields)*pl.yieldTime.Seconds())
	if pl.stormScale > 1 {
		w.stormExtra = sim.DurationOf(w.msgs * pl.dsPerMsg * pl.offloadRTT.Seconds() * (pl.stormScale - 1))
		w.sys += w.stormExtra
	}
	w.base = pl.cpuTime + img.memMax + w.heap + w.sys
	return w
}

// tableWindows returns the distinct windows at which runSteps draws a
// max-over-ranks detour and the profile gets a table for tableRanks ranks
// (noise.Profile.Tabled), in the order of the steps that first draw at
// them, and each one's first step. A step draws at its base, unless gang
// alignment or the absence of any synchronisation keeps it from calling
// noise.MaxDetourRank. The predicate is evaluated once per distinct
// window, and depends on the window and the image alone, so the windows of
// a shorter run are a prefix of the list.
func (img *Image) tableWindows() (windows []sim.Duration, first []int) {
	ranks := img.tableRanks()
	if ranks == 0 {
		return nil, nil
	}
	seen := map[sim.Duration]bool{}
	for step := 0; step < img.j.App.Timesteps; step++ {
		w := img.window(step)
		if w.collsDue == 0 && img.plan.haloWire == 0 || seen[w.base] {
			continue
		}
		seen[w.base] = true
		if img.prof.Tabled(w.base, ranks) {
			windows = append(windows, w.base)
			first = append(first, step)
		}
	}
	return windows, first
}

// tableRanks returns the largest rank count the image's steps draw a
// maximum over: the job's ranks when it runs collectives, the halo
// neighbourhood when only halo exchanges synchronise, and 0 when gang
// alignment or the absence of synchronisation keeps every step from
// drawing one. Tables are built for it; a call at another rank count
// checks the table resolves it.
func (img *Image) tableRanks() int {
	pl := &img.plan
	switch {
	case pl.gangAligned:
		return 0
	case pl.everyStepColls > 0 || len(pl.colls) > 0:
		return img.comm.Ranks()
	case pl.haloWire > 0:
		return min(haloNeighborhood, img.comm.Ranks())
	}
	return 0
}

// tables returns how many of the profile's max-of-K tables a run of
// steps steps draws from: those of the windows its steps reach.
func (img *Image) tables(steps int) int {
	n, _ := slices.BinarySearch(img.tableFirst, steps)
	return n
}

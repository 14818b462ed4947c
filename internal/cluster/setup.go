package cluster

import (
	"fmt"
	"math"
	"slices"

	"mklite/internal/apps"
	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
	"mklite/internal/sim"
)

// upfrontHotBias models that applications allocate their arrays roughly in
// order of access frequency, so even address-ordered upfront placement
// captures hot data with a modest bias over the uniform assumption.
const upfrontHotBias = 1.5

// demandRounds is the interleaving granularity of first-touch population:
// demand-paged ranks touch their working sets concurrently, so MCDRAM fills
// round-robin across ranks instead of rank-by-rank — the sharing effect the
// paper attributes McKernel's CCS-QCD win to.
const demandRounds = 16

// rankState is one rank's memory image on the model node.
type rankState struct {
	id       int
	homeQuad int
	as       *mem.AddrSpace
	ws       *mem.VMA
	heap     mem.Heap
	shm      *mem.VMA

	// memTime is the per-step memory-traffic service time.
	memTime sim.Duration
}

// nodeState is the fully set-up model node.
type nodeState struct {
	// phys is the node's physical allocator, shared by every rank.
	phys  *mem.Phys
	ranks []*rankState
	// setup is the untimed initialisation cost (max over ranks).
	setup sim.Duration
	// shmFault is the timed first-touch cost of the MPI shared-memory
	// windows (avoided by --mpol-shm-premap).
	shmFault sim.Duration

	// heaps is the columnar (struct-of-arrays) mirror of the ranks' heap
	// engines: the heap replay walks this dense slice instead of chasing
	// a *rankState per rank per step. Built once by buildColumns after
	// setup; rankState stays the construction-time view.
	heaps []mem.Heap
	// memMax is the maximum of the ranks' memTime — step-invariant
	// (memory service time depends only on placement, fixed after
	// setup), so the step loop reads it instead of re-scanning the ranks
	// every timestep.
	memMax sim.Duration
}

// buildColumns populates the columnar mirror and memMax from the per-rank
// structs.
func (ns *nodeState) buildColumns() {
	ns.heaps = make([]mem.Heap, len(ns.ranks))
	ns.memMax = 0
	for i, rs := range ns.ranks {
		ns.heaps[i] = rs.heap
		ns.memMax = max(ns.memMax, rs.memTime)
	}
}

// rotateLocalFirst appends ids to dst with the rank's home-quadrant domain
// of each kind first — the NUMA-aware placement both LWKs implement.
func rotateLocalFirst(dst, ids []int, home int) []int {
	for _, id := range ids {
		if id == home {
			dst = append(dst, id)
		}
	}
	for _, id := range ids {
		if id != home {
			dst = append(dst, id)
		}
	}
	return dst
}

// homeDomains maps a rank's quadrant index onto its local DDR domain and
// the MCDRAM domain nearest to it, for any clustering mode (SNC-4 has four
// of each; quadrant mode one of each). mc and ddr are the node's MCDRAM and
// DDR4 domain ids.
func homeDomains(node *hw.NodeSpec, mc, ddr []int, quad int) (mcHome, ddrHome int) {
	ddrHome = ddr[quad%len(ddr)]
	mcHome, err := node.NearestDomain(ddrHome, mc)
	if err != nil {
		mcHome = mc[0]
	}
	return mcHome, ddrHome
}

// quadOrders are the NUMA preference orders of every rank homed in one
// quadrant. They are derived once per quadrant of a node, and all of the
// quadrant's ranks map through the same slices: mem never writes a
// policy's Domains, and each slice's capacity equals its length, so an
// append through one rank's policy copies.
type quadOrders struct {
	mcHome int
	// ws is the working-set order; nil keeps the kernel's MapPolicy order.
	ws []int
	// heap is the heap order; nil selects the kernel's default.
	heap []int
	// shm is the MPI shared-memory window order.
	shm []int
}

// newQuadOrders derives quadrant quad's orders, reproducing each kernel's
// placement behaviour described in section II-D. mc and ddr are the node's
// MCDRAM and DDR4 domain ids.
func newQuadOrders(k kernel.Kernel, j Job, mc, ddr []int, quad int) *quadOrders {
	node := k.Partition().Node
	mcHome, ddrHome := homeDomains(node, mc, ddr, quad)
	// Local MCDRAM first, then local DDR4 first, in one slice: its two
	// halves are the per-kind local-first orders.
	local := make([]int, 0, len(mc)+len(ddr))
	local = rotateLocalFirst(local, mc, mcHome)
	local = rotateLocalFirst(local, ddr, ddrHome)
	mcLocal, ddrLocal := local[:len(mc):len(mc)], local[len(mc):]

	o := &quadOrders{mcHome: mcHome, shm: local}
	if j.ForceDDROnly || (k.Type() == kernel.TypeLinux && !fitsInMCDRAM(j)) {
		// DDR-pinned job (Table I) or a Linux job that cannot express
		// MCDRAM preference in SNC-4.
		o.shm = ddrLocal
	}
	if j.ForceDDROnly {
		o.ws, o.heap = ddrLocal, ddrLocal
		return o
	}
	switch k.Type() {
	case kernel.TypeLinux:
		switch {
		case fitsInMCDRAM(j):
			// numactl --membind on the MCDRAM domains: no
			// fallback needed because the job is sized to fit.
			o.ws = mcLocal
		case node.Mode == hw.Quadrant:
			// In quadrant mode numactl -p can express "prefer
			// MCDRAM, spill to DDR" — the tuning route the paper
			// notes most KNL clusters take.
			o.ws = local
		default:
			// SNC-4 prevents "prefer all MCDRAM, spill to DDR":
			// the paper runs such jobs from DDR4 only.
			o.ws = ddrLocal
		}
	case kernel.TypeMcKernel:
		o.ws = local
	case kernel.TypeMOS:
		// Rigid launch-time division respecting NUMA boundaries:
		// local MCDRAM, then local DDR, then the rest.
		ws := make([]int, 0, len(local))
		ws = append(ws, mcHome, ddrHome)
		ws = append(ws, mcLocal[1:]...)
		o.ws = append(ws, ddrLocal[1:]...)
	}
	return o
}

// wsPolicy derives one rank's working-set placement policy from the
// kernel's anonymous-mapping policy and the rank's quadrant orders.
func wsPolicy(k kernel.Kernel, j Job, anon mem.Policy, o *quadOrders, wsBytes int64) mem.Policy {
	pol := anon
	if o.ws != nil {
		pol.Domains = o.ws
	}
	if j.ForceDDROnly {
		pol.FallbackDemand = false
		return pol
	}
	// McKernel's distinctive fallback: when the preferred NUMA domain
	// cannot back the mapping, switch to demand paging for best-effort
	// placement instead of dividing upfront. Free memory shrinks as
	// ranks map, so this is decided per rank.
	if k.Type() == kernel.TypeMcKernel && k.Caps().Has(kernel.CapDemandPagingFallback) &&
		k.Phys().FreeBytes(o.mcHome) < wsBytes {
		pol.Demand = true
	}
	return pol
}

// fitsInMCDRAM reports whether the job's per-node footprint fits the
// 16 GiB of MCDRAM with headroom for heaps and windows.
func fitsInMCDRAM(j Job) bool {
	perNode := j.App.WorkingSetPerRank(j.Nodes) * int64(j.App.RanksPerNode)
	return perNode <= 15*hw.GiB
}

// SameLayout reports whether app lays out the same node at a and at b nodes:
// whether its per-rank working set, memory traffic and brk trace, the only
// inputs through which the node count reaches setupNode, memTimeFor and the
// heap replay, are equal at both. It decides by their values, so a
// weak-scaled application shares one layout across node counts and a
// strong-scaled one, whose ranks shrink as the job grows, does not. A node
// image serves every node count that shares its layout (Image.Nodes).
func SameLayout(app *apps.Spec, a, b int) bool {
	if a == b {
		return true
	}
	if app.WorkingSetPerRank(a) != app.WorkingSetPerRank(b) ||
		app.MemTrafficPerStep(a) != app.MemTrafficPerStep(b) {
		return false
	}
	if app.HeapOpsPerStep == nil {
		return true
	}
	return slices.Equal(app.HeapOpsPerStep(a), app.HeapOpsPerStep(b))
}

// setupNode builds every rank's address space, working set, heap and MPI
// shared-memory window through the kernel's real memory paths. It draws no
// random numbers: a node's layout is a function of the job alone, and of
// its node count only as far as SameLayout looks.
func setupNode(k kernel.Kernel, j Job) (*nodeState, error) {
	app := j.App
	ws := app.WorkingSetPerRank(j.Nodes)
	ns := &nodeState{phys: k.Phys()}
	costs := k.Costs()

	// Everything that is the same for every rank is derived here, once:
	// the kernel's mapping policies (pure functions of the mapping kind)
	// and, per quadrant on first use, the NUMA orders.
	node := k.Partition().Node
	mc, ddr := node.DomainsOfKind(hw.MCDRAM), node.DomainsOfKind(hw.DDR4)
	anonPol := k.MapPolicy(mem.VMAAnon)
	shmPol := k.MapPolicy(mem.VMAShared)
	var quads [4]*quadOrders
	ns.ranks = make([]*rankState, 0, app.RanksPerNode)
	for r := 0; r < app.RanksPerNode; r++ {
		quad := r * 4 / app.RanksPerNode
		if quads[quad] == nil {
			quads[quad] = newQuadOrders(k, j, mc, ddr, quad)
		}
		o := quads[quad]
		rs := &rankState{id: r, homeQuad: quad, as: mem.NewAddrSpace(k.Phys())}
		// Attach the run's sink before any mapping so placement, fault
		// and heap counters cover the whole setup.
		rs.as.SetSink(j.Sink)

		v, err := rs.as.Map(ws, mem.VMAAnon, wsPolicy(k, j, anonPol, o, ws))
		if err != nil {
			return nil, fmt.Errorf("cluster: rank %d working set: %w", r, err)
		}
		rs.ws = v

		h, err := k.NewHeap(rs.as, app.HeapLimitOrDefault(), o.heap)
		if err != nil {
			return nil, fmt.Errorf("cluster: rank %d heap: %w", r, err)
		}
		rs.heap = h

		if app.ShmWindowBytes > 0 {
			pol := shmPol
			pol.Domains = o.shm
			sv, err := rs.as.Map(app.ShmWindowBytes, mem.VMAShared, pol)
			if err != nil {
				return nil, fmt.Errorf("cluster: rank %d shm window: %w", r, err)
			}
			rs.shm = sv
		}
		ns.ranks = append(ns.ranks, rs)
	}

	// First-touch population, interleaved across ranks, hot bytes first
	// (initialisation order follows access frequency in these codes).
	// Watermarks are 2 MiB aligned: sequential first touch populates in
	// huge-page chunks on every kernel (THP on Linux, upfront granules
	// on the LWKs); the interleaving is between ranks, not within pages.
	align2M := func(x int64) int64 {
		const m = int64(hw.Page2M)
		return (x + m - 1) / m * m
	}
	hot := int64(float64(ws) * app.HotFraction)
	for round := 1; round <= demandRounds; round++ {
		for _, rs := range ns.ranks {
			if !rs.ws.DemandActive {
				continue
			}
			if hot > 0 {
				rs.as.Touch(rs.ws, 0, align2M(hot*int64(round)/demandRounds))
			} else {
				rs.as.Touch(rs.ws, 0, align2M(ws*int64(round)/demandRounds))
			}
		}
	}
	if hot > 0 {
		for round := 1; round <= demandRounds; round++ {
			for _, rs := range ns.ranks {
				if rs.ws.DemandActive {
					rs.as.Touch(rs.ws, 0, align2M(hot+(ws-hot)*int64(round)/demandRounds))
				}
			}
		}
	}

	// Untimed setup cost: faults (demand) or page-table population and
	// zeroing (upfront); identical ranks, take the max.
	for _, rs := range ns.ranks {
		var w mem.Work
		w.Faults = rs.ws.Faults
		w.PagesMapped = int64(len(rs.ws.Backings))
		w.ZeroedBytes = rs.ws.Populated
		if c := costs.WorkTime(w); c > ns.setup {
			ns.setup = c
		}
	}

	// MPI shared-memory windows: demand-paged windows fault during the
	// first exchanges — inside the timed phase, and under contention
	// (every rank faults into the handler at once).
	const shmContention = 4
	for _, rs := range ns.ranks {
		if rs.shm == nil {
			continue
		}
		if rs.shm.DemandActive {
			res := rs.as.Touch(rs.shm, 0, rs.shm.Size)
			w := mem.Work{Faults: res.Faults * shmContention, ZeroedBytes: res.BytesPopulated}
			if c := costs.WorkTime(w); c > ns.shmFault {
				ns.shmFault = c
			}
		} else {
			// Premapped: the cost moved into untimed setup.
			w := mem.Work{PagesMapped: int64(len(rs.shm.Backings)), ZeroedBytes: rs.shm.Populated}
			if c := costs.WorkTime(w); c > ns.setup {
				ns.setup += c
			}
		}
	}

	// Derive each rank's per-step memory service time, then hoist the
	// hot-loop state into columnar form.
	for _, rs := range ns.ranks {
		rs.memTime = memTimeFor(k, j, rs)
	}
	ns.buildColumns()
	return ns, nil
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

// contiguityFactor credits physically contiguous backing with up to 4%
// extra effective bandwidth: "An implication of contiguous physical memory
// is better cache performance, similar to techniques such as page
// coloring" (section II-D3). The credit ramps logarithmically from 2 MiB
// extents (none) to 1 GiB extents (full).
func contiguityFactor(avgExtent int64) float64 {
	const (
		lo    = float64(hw.Page2M)
		hi    = float64(hw.Page1G)
		bonus = 0.04
	)
	if avgExtent <= int64(lo) {
		return 1
	}
	f := math.Log(float64(avgExtent)/lo) / math.Log(hi/lo)
	if f > 1 {
		f = 1
	}
	return 1 + bonus*f
}

// memTimeFor computes a rank's per-step memory-traffic time from where its
// pages actually landed: MCDRAM vs DDR4 split (with the hot-data model),
// per-rank bandwidth shares and TLB derating by page size.
func memTimeFor(k kernel.Kernel, j Job, rs *rankState) sim.Duration {
	app := j.App
	traffic := float64(app.MemTrafficPerStep(j.Nodes))
	if traffic <= 0 {
		return 0
	}
	node := k.Partition().Node
	ws := float64(rs.ws.Populated)
	if ws <= 0 {
		// Nothing resident: everything will fault later; treat as DDR.
		ws = float64(rs.ws.Size)
	}

	// Bytes, page mix and physical contiguity (extent count) by kind for
	// the working-set area, in fixed arrays indexed by kind and page size.
	var mcBytes, ddrBytes float64
	var mix [hw.NumMemKinds][len(hw.PageSizes)]int64
	var extBytes, extCount [hw.NumMemKinds]int64
	for _, b := range rs.ws.Backings {
		d, err := node.Domain(b.Ext.Domain)
		if err != nil {
			continue
		}
		kind := d.Mem.Kind
		mix[kind][b.Page.Index()] += b.Ext.Size
		extBytes[kind] += b.Ext.Size
		extCount[kind]++
		if kind == hw.MCDRAM {
			mcBytes += float64(b.Ext.Size)
		} else {
			ddrBytes += float64(b.Ext.Size)
		}
	}

	// Per-rank bandwidth share of each kind, TLB-derated and credited
	// for physical contiguity (average extent size).
	bwShare := func(kind hw.MemKind) float64 {
		var total float64
		var dev hw.MemDeviceSpec
		for _, d := range node.Domains {
			if d.Mem.Kind == kind {
				total += d.Mem.StreamBandwidth
				dev = d.Mem
			}
		}
		share := total / float64(app.RanksPerNode)
		if kindBytes := extBytes[kind]; kindBytes > 0 {
			var frac [len(hw.PageSizes)]float64
			for i, b := range mix[kind] {
				frac[i] = float64(b) / float64(kindBytes)
			}
			derate := node.TLB.EffectiveBandwidth(dev, kindBytes, frac) / dev.StreamBandwidth
			share *= derate
		}
		if n := extCount[kind]; n > 0 {
			share *= contiguityFactor(extBytes[kind] / n)
		}
		return share * float64(hw.GiB) // bytes/s
	}
	bwMC := bwShare(hw.MCDRAM)
	bwDDR := bwShare(hw.DDR4)

	mcFrac := mcBytes / ws
	if mcFrac > 1 {
		mcFrac = 1
	}

	if app.HotFraction <= 0 {
		t := traffic * (mcFrac/bwMC + (1-mcFrac)/bwDDR)
		if mcBytes == 0 {
			t = traffic / bwDDR
		}
		return sim.DurationOf(t)
	}

	// Hot-data model: hot bytes receive HotTraffic of the traffic.
	hot := app.HotFraction * float64(rs.ws.Size)
	cold := float64(rs.ws.Size) - hot
	var hotMCFrac, coldMCFrac float64
	if rs.ws.DemandActive {
		// Hot-first touch order: MCDRAM filled with hot bytes.
		hotInMC := mcBytes
		if hotInMC > hot {
			hotInMC = hot
		}
		hotMCFrac = hotInMC / hot
		if cold > 0 {
			coldMCFrac = (mcBytes - hotInMC) / cold
		}
	} else {
		// Upfront address-ordered placement with a modest hot bias.
		hotMCFrac = mcFrac * upfrontHotBias
		if hotMCFrac > 1 {
			hotMCFrac = 1
		}
		if cold > 0 {
			coldMCFrac = (mcBytes - hotMCFrac*hot) / cold
			if coldMCFrac < 0 {
				coldMCFrac = 0
			}
			if coldMCFrac > 1 {
				coldMCFrac = 1
			}
		}
	}
	hotT := app.HotTraffic * traffic
	coldT := traffic - hotT
	t := hotT*(hotMCFrac/bwMC+(1-hotMCFrac)/bwDDR) +
		coldT*(coldMCFrac/bwMC+(1-coldMCFrac)/bwDDR)
	return sim.DurationOf(t)
}

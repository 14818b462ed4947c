// Package mpi models the message-passing runtime the applications use:
// intra-node exchanges over shared memory, inter-node exchanges over the
// fabric, and the standard collectives (barrier, broadcast, reduce,
// allreduce, allgather, alltoall) plus nearest-neighbour halo exchange.
//
// The model returns *wire* times — what a collective costs on a perfectly
// quiet machine. Noise amplification (the max-over-ranks arrival skew that
// produces the paper's Linux cliffs) is composed on top by the cluster
// harness, which samples per-rank detours and charges the collective the
// worst one; keeping the two concerns separate makes the ablations clean.
package mpi

import (
	"fmt"
	"math"

	"mklite/internal/fabric"
	"mklite/internal/sim"
)

// Comm is a communicator over a concrete job layout.
type Comm struct {
	Fabric       *fabric.Spec
	Nodes        int
	RanksPerNode int
	// IntraLatency is the shared-memory message latency within a node.
	IntraLatency sim.Duration
	// IntraBandwidth is the shared-memory copy bandwidth in GiB/s.
	IntraBandwidth float64
}

// New builds a communicator. RanksPerNode and Nodes must be positive.
func New(fab *fabric.Spec, nodes, ranksPerNode int) (*Comm, error) {
	if nodes <= 0 || ranksPerNode <= 0 {
		return nil, fmt.Errorf("mpi: bad layout %d nodes x %d ranks", nodes, ranksPerNode)
	}
	if fab == nil {
		return nil, fmt.Errorf("mpi: nil fabric")
	}
	return &Comm{
		Fabric:         fab,
		Nodes:          nodes,
		RanksPerNode:   ranksPerNode,
		IntraLatency:   400 * sim.Nanosecond,
		IntraBandwidth: 6, // GiB/s effective single-pair shm copy on KNL
	}, nil
}

// Ranks returns the total rank count.
func (c *Comm) Ranks() int { return c.Nodes * c.RanksPerNode }

// CollResult reports a collective's wire time and per-rank message count
// (the count drives syscall-offload penalties on kernel-involved fabrics).
type CollResult struct {
	Time sim.Duration
	// Messages is the fabric (inter-node) message count per rank,
	// averaged over ranks.
	Messages float64
	// IntraMessages is the shared-memory message count per rank.
	IntraMessages float64
}

// interHops is the hop count used for collective stages: the diameter at
// this node count (collectives at scale are dominated by the far pairs of
// recursive doubling).
func (c *Comm) interHops() int { return c.Fabric.MaxHops(c.Nodes) }

// interStep is one inter-node exchange of the given payload.
func (c *Comm) interStep(bytes int64) sim.Duration {
	return c.Fabric.PointToPoint(bytes, c.interHops())
}

// intraStep is one shared-memory exchange of the given payload.
func (c *Comm) intraStep(bytes int64) sim.Duration {
	if bytes <= 0 {
		return c.IntraLatency
	}
	return c.IntraLatency + sim.DurationOf(float64(bytes)/(c.IntraBandwidth*math.Exp2(30)))
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// Allreduce models the hierarchical implementation production MPIs use on
// many-core nodes: a shared-memory tree reduction to a node leader,
// recursive doubling among leaders, then an intra-node broadcast.
func (c *Comm) Allreduce(bytes int64) CollResult {
	if bytes < 0 {
		panic(fmt.Sprintf("mpi: negative allreduce size %d", bytes))
	}
	intraSteps := log2ceil(c.RanksPerNode)
	interSteps := log2ceil(c.Nodes)
	t := sim.Duration(0)
	// Reduce to leader and broadcast back: two intra sweeps.
	t += sim.Duration(2*intraSteps) * c.intraStep(bytes)
	// Leaders run recursive doubling.
	t += sim.Duration(interSteps) * c.interStep(bytes)
	return CollResult{
		Time: t,
		// Only leaders (1/RanksPerNode of ranks) touch the fabric;
		// average per rank.
		Messages:      float64(interSteps) / float64(c.RanksPerNode),
		IntraMessages: float64(2 * intraSteps),
	}
}

// Bcast models a binomial broadcast: intra-node fan-out after a leader
// tree over the fabric.
func (c *Comm) Bcast(bytes int64) CollResult {
	interSteps := log2ceil(c.Nodes)
	intraSteps := log2ceil(c.RanksPerNode)
	return CollResult{
		Time:          sim.Duration(interSteps)*c.interStep(bytes) + sim.Duration(intraSteps)*c.intraStep(bytes),
		Messages:      float64(interSteps) / float64(c.RanksPerNode),
		IntraMessages: float64(intraSteps),
	}
}

// Allgather models recursive doubling with doubling payloads: total traffic
// per rank is bytes*(ranks-1), latency log2(ranks).
func (c *Comm) Allgather(bytesPerRank int64) CollResult {
	steps := log2ceil(c.Ranks())
	total := bytesPerRank * int64(c.Ranks()-1)
	// The payload-dominated cost: total bytes over the injection
	// bandwidth, plus a latency term per step.
	bw := sim.DurationOf(float64(total) / (c.Fabric.InjectionBandwidth * math.Exp2(30)))
	return CollResult{
		Time:     sim.Duration(steps)*c.interStep(0) + bw,
		Messages: float64(steps),
	}
}

// Alltoall models the pairwise-exchange algorithm: bandwidth dominated at
// scale, with one message per peer.
func (c *Comm) Alltoall(bytesPerPeer int64) CollResult {
	peers := c.Ranks() - 1
	if peers <= 0 {
		return CollResult{}
	}
	// Per-node injected volume: every local rank sends to every
	// off-node rank.
	offNodePeers := peers - (c.RanksPerNode - 1)
	volume := int64(c.RanksPerNode) * bytesPerPeer * int64(offNodePeers)
	bwTime := sim.DurationOf(float64(volume) / (c.Fabric.InjectionBandwidth * math.Exp2(30)))
	alpha := c.interStep(0)
	// Messages pipeline; charge one alpha per doubling stage rather
	// than per peer.
	return CollResult{
		Time:          sim.Duration(log2ceil(c.Ranks()))*alpha + bwTime,
		Messages:      float64(offNodePeers),
		IntraMessages: float64(c.RanksPerNode - 1),
	}
}

// HaloExchange models nearest-neighbour boundary exchange: `neighbors`
// simultaneous sends of `bytes` each; off-node links serialise on the
// injection bandwidth.
func (c *Comm) HaloExchange(bytes int64, neighbors int) CollResult {
	if neighbors <= 0 {
		return CollResult{}
	}
	// With RanksPerNode ranks per node, a fraction of neighbours are
	// intra-node. For a 3D node grid the off-node fraction follows the
	// subdomain surface: it is zero on one node and ramps towards one
	// half as the node grid grows (interior rank pairs stay on-node).
	offNode := 0
	if c.Nodes > 1 {
		offFrac := 0.5 * (1 - math.Pow(float64(c.Nodes), -1.0/3.0))
		if c.RanksPerNode == 1 {
			offFrac = 1 // every neighbour is on another node
		}
		offNode = int(float64(neighbors)*offFrac + 0.5)
		if offNode < 1 {
			offNode = 1
		}
		if offNode > neighbors {
			offNode = neighbors
		}
	}
	intra := neighbors - offNode
	t := sim.Duration(0)
	if intra > 0 {
		t += c.intraStep(bytes) // intra exchanges proceed in parallel pairs
	}
	if offNode > 0 {
		volume := bytes * int64(offNode)
		t += c.interStep(0) + sim.DurationOf(float64(volume)/(c.Fabric.InjectionBandwidth*math.Exp2(30)))
	}
	return CollResult{
		Time:          t,
		Messages:      float64(offNode),
		IntraMessages: float64(intra),
	}
}

// Retransmit is the wire time of one retransmitted fabric message of the
// given payload: the resent bytes cross the job's diameter once more (a
// shared-memory copy on a single node). The fault layer charges this — plus
// the retransmit timeout — for every message the degraded link drops; a
// loss inside a collective stalls every rank waiting on the reduction, so
// the harness charges the delay to the whole step.
func (c *Comm) Retransmit(bytes int64) sim.Duration {
	if c.Nodes <= 1 {
		return c.intraStep(bytes)
	}
	return c.interStep(bytes)
}

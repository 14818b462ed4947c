// Package fabric models the cluster interconnect: an Intel Omni-Path-like
// fat-tree with alpha-beta link costs. One property is load-bearing for the
// paper's LAMMPS result (Fig. 6b): the first-generation Omni-Path host
// interface "involves system calls for certain operations", so communication
// on the critical path crosses into the kernel — and on a multi-kernel,
// those crossings are offloaded, adding latency. Fabrics driven entirely
// from user space (the norm for high-performance networks) do not pay this.
package fabric

import (
	"fmt"
	"math"

	"mklite/internal/sim"
)

// Spec describes an interconnect.
type Spec struct {
	Name string
	// InjectionBandwidth is the per-node injection bandwidth in GiB/s.
	InjectionBandwidth float64
	// BaseLatency is the end-to-end latency of a minimal message
	// between adjacent nodes (one switch hop).
	BaseLatency sim.Duration
	// PerHopLatency is the additional latency per extra switch hop.
	PerHopLatency sim.Duration
	// SwitchRadix is the port count of the fat-tree switches; it
	// determines hop counts at a given system size.
	SwitchRadix int
	// SyscallsPerMessage is the expected number of kernel crossings a
	// message send/receive pair requires on the host (0 for pure
	// user-space fabrics, >0 for the paper's Omni-Path generation).
	SyscallsPerMessage float64
}

// OmniPath returns the Oakforest-PACS interconnect model: 100 Gbit/s
// (12.5 GB/s) injection, ~1 us nearest latency, 48-port switches, and the
// kernel-involvement property discussed in section IV.
func OmniPath() *Spec {
	return &Spec{
		Name:               "omni-path",
		InjectionBandwidth: 11.6, // GiB/s (12.5 GB/s)
		BaseLatency:        1 * sim.Microsecond,
		PerHopLatency:      150 * sim.Nanosecond,
		SwitchRadix:        48,
		SyscallsPerMessage: 0.25,
	}
}

// UserSpaceFabric returns an otherwise identical fabric whose host
// interface is driven entirely from user space — the ablation baseline for
// the LAMMPS anomaly.
func UserSpaceFabric() *Spec {
	s := OmniPath()
	s.Name = "userspace-fabric"
	s.SyscallsPerMessage = 0
	return s
}

// MaxHops returns the hop count diameter at a given system size.
func (s *Spec) MaxHops(totalNodes int) int {
	perEdge := s.SwitchRadix / 2
	switch {
	case totalNodes <= 1:
		return 0
	case totalNodes <= perEdge:
		return 1
	case totalNodes <= perEdge*s.SwitchRadix/2:
		return 3
	default:
		return 5
	}
}

// PointToPoint returns the wire time for a message of the given size over
// the given hop count: alpha (base + per-hop) + bytes/bandwidth.
func (s *Spec) PointToPoint(bytes int64, hops int) sim.Duration {
	if bytes < 0 {
		panic(fmt.Sprintf("fabric: negative message size %d", bytes))
	}
	if hops <= 0 {
		// Intra-node: modelled as memory-speed copy by the MPI
		// layer; here only a minimal software latency applies.
		return 200 * sim.Nanosecond
	}
	alpha := s.BaseLatency + sim.Duration(hops-1)*s.PerHopLatency
	beta := sim.DurationOf(float64(bytes) / (s.InjectionBandwidth * math.Exp2(30)))
	return alpha + beta
}

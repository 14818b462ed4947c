// Package hw models the compute-node hardware the paper evaluates on:
// Intel Xeon Phi 7250 "Knights Landing" (KNL) nodes with 68 cores, four
// hyperthreads per core, 16 GiB of on-package high-bandwidth MCDRAM and
// 96 GiB of DDR4, configured in SNC-4 flat mode (four DDR4 NUMA domains with
// cores plus four core-less MCDRAM domains).
//
// The model is deliberately parametric — every performance effect the paper
// explains (MCDRAM vs DDR4 bandwidth, TLB reach of 4 KiB/2 MiB/1 GiB pages,
// NUMA distance) is a function of the specs defined here, so other node
// types can be described without touching the kernels.
package hw

import "fmt"

// MemKind identifies a class of memory device.
type MemKind int

const (
	// DDR4 is conventional off-package DRAM.
	DDR4 MemKind = iota
	// MCDRAM is KNL's on-package high-bandwidth memory.
	MCDRAM
)

// NumMemKinds is the number of memory kinds; arrays indexed by MemKind
// have this length.
const NumMemKinds = 2

// String returns the conventional name of the memory kind.
func (k MemKind) String() string {
	switch k {
	case DDR4:
		return "DDR4"
	case MCDRAM:
		return "MCDRAM"
	default:
		return fmt.Sprintf("MemKind(%d)", int(k))
	}
}

// PageSize is a hardware page size in bytes.
type PageSize int64

// Page sizes supported by the modelled MMU. Both LWKs in the paper use
// large pages "whenever and wherever possible ... using 1 GB pages if the
// size of the mapping allows it".
const (
	Page4K PageSize = 4 << 10
	Page2M PageSize = 2 << 20
	Page1G PageSize = 1 << 30
)

// PageSizes lists the supported page sizes in ascending order. Arrays
// indexed by PageSize.Index follow this order.
var PageSizes = [...]PageSize{Page4K, Page2M, Page1G}

// Index returns p's position in PageSizes, or -1 for an unsupported size.
func (p PageSize) Index() int {
	switch p {
	case Page4K:
		return 0
	case Page2M:
		return 1
	case Page1G:
		return 2
	default:
		return -1
	}
}

// String formats the page size in conventional units.
func (p PageSize) String() string {
	switch p {
	case Page4K:
		return "4KiB"
	case Page2M:
		return "2MiB"
	case Page1G:
		return "1GiB"
	default:
		return fmt.Sprintf("%dB", int64(p))
	}
}

// Valid reports whether p is one of the supported page sizes.
func (p PageSize) Valid() bool {
	return p == Page4K || p == Page2M || p == Page1G
}

// Byte quantity helpers.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// MemDeviceSpec describes one memory device (the memory side of a NUMA
// domain).
type MemDeviceSpec struct {
	Kind MemKind
	// Capacity in bytes.
	Capacity int64
	// StreamBandwidth is the sustainable per-domain stream bandwidth in
	// GiB/s for well-behaved (large-page, contiguous) access.
	StreamBandwidth float64
	// LoadLatency is the idle load-to-use latency in nanoseconds. MCDRAM
	// on KNL is famously *higher* latency than DDR4 despite the
	// bandwidth advantage; the model keeps that inversion.
	LoadLatency float64
}

// ClusterMode is the KNL on-die mesh clustering mode. The paper runs
// SNC-4 flat; quadrant mode appears in the CCS-QCD discussion because Linux
// can only express "prefer MCDRAM" via numactl -p in quadrant mode.
type ClusterMode int

const (
	// SNC4 splits the chip into four sub-NUMA clusters: four DDR4
	// domains with cores, four core-less MCDRAM domains.
	SNC4 ClusterMode = iota
	// Quadrant exposes one DDR4 domain with all cores and one MCDRAM
	// domain.
	Quadrant
)

// String returns the mode name.
func (m ClusterMode) String() string {
	switch m {
	case SNC4:
		return "SNC-4"
	case Quadrant:
		return "Quadrant"
	default:
		return fmt.Sprintf("ClusterMode(%d)", int(m))
	}
}

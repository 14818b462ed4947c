package hw

import "slices"

// Knights Landing (Xeon Phi 7250) presets matching the Oakforest-PACS
// compute-node configuration of the paper: 68 cores x 4 hyperthreads,
// 16 GiB MCDRAM + 96 GiB DDR4, flat memory mode.

// knlTLB approximates the KNL core's translation caches.
func knlTLB() TLBSpec {
	return TLBSpec{
		Entries4K:       256,
		Entries2M:       128,
		Entries1G:       16,
		MissCostNs:      100,
		AccessesPerByte: 1.0 / 64.0,
	}
}

const (
	knlCores          = 68
	knlThreadsPerCore = 4
	knlFreqGHz        = 1.4

	// Per-quadrant SNC-4 figures: 96 GiB DDR4 / ~90 GiB/s total,
	// 16 GiB MCDRAM / ~460 GiB/s total, split four ways.
	knlDDRPerQuad      = 24 * GiB
	knlMCDRAMPerQuad   = 4 * GiB
	knlDDRBWPerQuad    = 22.5
	knlMCDRAMBWPerQuad = 115.0

	knlDDRLatencyNs    = 130.0
	knlMCDRAMLatencyNs = 170.0 // MCDRAM trades latency for bandwidth
)

// KNL7250SNC4 returns the node model used throughout the paper's
// evaluation: SNC-4 flat mode, eight NUMA domains (0-3 DDR4 with cores,
// 4-7 core-less MCDRAM), 272 logical CPUs.
//
// Logical CPU numbering follows Linux on KNL: CPUs 0..67 are the first
// hyperthread of each core; siblings are at +68, +136, +204.
//
// Every cluster.Prepare boots a fresh node, so the spec is built with its final sizes:
// the core and domain tables are allocated once, and all CPU lists are
// windows of one backing array, clipped so that an append through one list
// copies instead of overwriting its neighbour.
func KNL7250SNC4() *NodeSpec {
	n := &NodeSpec{
		Name:           "KNL-7250-SNC4",
		Mode:           SNC4,
		Cores:          make([]CoreSpec, 0, knlCores),
		Domains:        make([]DomainSpec, 0, 8),
		ThreadsPerCore: knlThreadsPerCore,
		TLB:            knlTLB(),
		CoreFreqGHz:    knlFreqGHz,
	}
	// Each core's hyperthreads, then each DDR domain's CPUs.
	cpus := make([]int, 0, 2*knlCores*knlThreadsPerCore)
	// 68 cores split into quadrants of 17.
	const perQuad = knlCores / 4
	for c := 0; c < knlCores; c++ {
		from := len(cpus)
		for t := 0; t < knlThreadsPerCore; t++ {
			cpus = append(cpus, c+t*knlCores)
		}
		n.Cores = append(n.Cores, CoreSpec{ID: c, Domain: c / perQuad, CPUs: slices.Clip(cpus[from:])})
	}
	for q := 0; q < 4; q++ {
		from := len(cpus)
		for c := q * perQuad; c < (q+1)*perQuad; c++ {
			for t := 0; t < knlThreadsPerCore; t++ {
				cpus = append(cpus, c+t*knlCores)
			}
		}
		n.Domains = append(n.Domains, DomainSpec{
			ID: q,
			Mem: MemDeviceSpec{
				Kind:            DDR4,
				Capacity:        knlDDRPerQuad,
				StreamBandwidth: knlDDRBWPerQuad,
				LoadLatency:     knlDDRLatencyNs,
			},
			CPUs: slices.Clip(cpus[from:]),
		})
	}
	for q := 0; q < 4; q++ {
		n.Domains = append(n.Domains, DomainSpec{
			ID: 4 + q,
			Mem: MemDeviceSpec{
				Kind:            MCDRAM,
				Capacity:        knlMCDRAMPerQuad,
				StreamBandwidth: knlMCDRAMBWPerQuad,
				LoadLatency:     knlMCDRAMLatencyNs,
			},
		})
	}
	n.Distance = snc4Distance()
	return n
}

// snc4Distance builds the 8x8 SLIT-style matrix the OFP nodes report:
// local 10, remote DDR quadrant 21, own-quadrant MCDRAM 31, remote MCDRAM
// 41. The >=31 MCDRAM distances are what breaks numactl-based MCDRAM
// preference on Linux in SNC-4 mode (paper, section II-D3). The rows are
// clipped windows of one backing array.
func snc4Distance() [][]int {
	const n = 8
	cells := make([]int, n*n)
	d := make([][]int, n)
	for i := range d {
		d[i] = cells[i*n : (i+1)*n : (i+1)*n]
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 10
			case i < 4 && j < 4: // DDR to DDR
				d[i][j] = 21
			case i < 4 && j >= 4: // DDR quadrant to MCDRAM
				if j-4 == i {
					d[i][j] = 31
				} else {
					d[i][j] = 41
				}
			case i >= 4 && j < 4: // MCDRAM to DDR quadrant
				if i-4 == j {
					d[i][j] = 31
				} else {
					d[i][j] = 41
				}
			default: // MCDRAM to MCDRAM
				d[i][j] = 41
			}
		}
	}
	return d
}

// quadrantMeshPenalty derates aggregated bandwidth in quadrant mode:
// "SNC-4 mode offers the highest possible hardware performance" (section
// III-B), so the single-domain configuration pays a small mesh-traffic tax.
const quadrantMeshPenalty = 0.93

// KNL7250Quadrant returns the quadrant-mode variant: two NUMA domains, all
// cores on the DDR4 domain, MCDRAM exposed as one core-less domain. Used by
// the CCS-QCD discussion (numactl -p works here).
func KNL7250Quadrant() *NodeSpec {
	n := &NodeSpec{
		Name:           "KNL-7250-Quadrant",
		Mode:           Quadrant,
		Cores:          make([]CoreSpec, 0, knlCores),
		Domains:        make([]DomainSpec, 0, 2),
		ThreadsPerCore: knlThreadsPerCore,
		TLB:            knlTLB(),
		CoreFreqGHz:    knlFreqGHz,
	}
	// Each core's hyperthreads, then the DDR domain's CPUs in core order.
	const nCPU = knlCores * knlThreadsPerCore
	cpus := make([]int, 0, 2*nCPU)
	for c := 0; c < knlCores; c++ {
		from := len(cpus)
		for t := 0; t < knlThreadsPerCore; t++ {
			cpus = append(cpus, c+t*knlCores)
		}
		n.Cores = append(n.Cores, CoreSpec{ID: c, Domain: 0, CPUs: slices.Clip(cpus[from:])})
	}
	cpus = append(cpus, cpus[:nCPU]...)
	n.Domains = append(n.Domains, DomainSpec{
		ID: 0,
		Mem: MemDeviceSpec{
			Kind:            DDR4,
			Capacity:        4 * knlDDRPerQuad,
			StreamBandwidth: 4 * knlDDRBWPerQuad * quadrantMeshPenalty,
			LoadLatency:     knlDDRLatencyNs,
		},
		CPUs: slices.Clip(cpus[nCPU:]),
	}, DomainSpec{
		ID: 1,
		Mem: MemDeviceSpec{
			Kind:            MCDRAM,
			Capacity:        4 * knlMCDRAMPerQuad,
			StreamBandwidth: 4 * knlMCDRAMBWPerQuad * quadrantMeshPenalty,
			LoadLatency:     knlMCDRAMLatencyNs,
		},
	})
	n.Distance = [][]int{{10, 31}, {31, 10}}
	return n
}

package kernel

import (
	"fmt"

	"mklite/internal/hw"
)

// Partition is the division of a node's cores between the OS (Linux) side
// and the application (LWK) side. "For all experiments, we dedicated 64 CPU
// cores to the application and reserved 4 CPU cores for OS activities" —
// DefaultPartition reproduces that split.
type Partition struct {
	Node *hw.NodeSpec
	// OSCores are physical core ids retained by Linux for daemons and
	// offloaded work.
	OSCores []int
	// AppCores are physical core ids running application ranks (the
	// LWK's cores on a multi-kernel; nohz_full cores on plain Linux).
	AppCores []int
}

// DefaultPartition reserves the first osCores cores (where system services
// live — including the notoriously noisy core 0) for the OS and gives the
// rest to the application.
func DefaultPartition(node *hw.NodeSpec, osCores int) (Partition, error) {
	total := node.NumCores()
	if osCores < 0 || osCores >= total {
		return Partition{}, fmt.Errorf("kernel: cannot reserve %d of %d cores for the OS", osCores, total)
	}
	p := Partition{Node: node}
	for c := 0; c < total; c++ {
		if c < osCores {
			p.OSCores = append(p.OSCores, c)
		} else {
			p.AppCores = append(p.AppCores, c)
		}
	}
	return p, nil
}

// NearestOSCore returns the OS core whose NUMA domain is closest to the
// given application core — the NUMA-aware LWK-to-Linux mapping both
// kernels use for offload targets (section II-D1).
func (p Partition) NearestOSCore(appCore int) (int, error) {
	if len(p.OSCores) == 0 {
		return 0, fmt.Errorf("kernel: no OS cores in partition")
	}
	appDom := p.Node.Cores[appCore].Domain
	best, bestDist := -1, int(^uint(0)>>1)
	for _, c := range p.OSCores {
		d := p.Node.Distance[appDom][p.Node.Cores[c].Domain]
		if d < bestDist || (d == bestDist && c < best) {
			best, bestDist = c, d
		}
	}
	return best, nil
}

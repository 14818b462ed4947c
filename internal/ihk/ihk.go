// Package ihk models the Interface for Heterogeneous Kernels: the low-level
// infrastructure McKernel boots from. IHK partitions CPU cores and physical
// memory out of a *running* Linux — no reboot — and provides the
// Inter-Kernel Communication (IKC) channel that system-call offloading
// rides on.
//
// Because IHK requests memory only after Linux has booted (it is a
// collection of kernel modules), the LWK inherits whatever contiguity
// Linux has left — "McKernel has to request them from Linux later,
// potentially after Linux has already placed unmovable data structures into
// it" (section II-D5). The Reserve function reproduces that mechanically by
// carving the grant out of the live Linux allocator.
package ihk

import (
	"fmt"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/mem"
)

// Grant is the resource partition IHK hands to an LWK.
type Grant struct {
	// Part is the core split (the LWK receives Part.AppCores).
	Part kernel.Partition
	// Extents are the physical ranges donated by Linux.
	Extents []mem.Extent
	// Phys is the LWK-side allocator over those extents.
	Phys *mem.Phys
}

// ReserveOptions tunes a reservation.
type ReserveOptions struct {
	// OSCores stay with Linux (default 4 — the paper's configuration).
	OSCores int
	// MemFraction of each domain's *currently free* memory is donated
	// to the LWK (default 0.95; Linux keeps the rest for the proxy
	// processes and daemons).
	MemFraction float64
	// Granule is the allocation granularity of the carve-out.
	Granule int64
}

// DefaultReserveOptions returns the paper's deployment values.
func DefaultReserveOptions() ReserveOptions {
	return ReserveOptions{OSCores: 4, MemFraction: 0.95, Granule: int64(hw.Page2M)}
}

// Reserve dynamically partitions CPU cores and memory from a running Linux
// ("IHK can allocate and release host resources dynamically without
// rebooting the host machine").
func Reserve(lin *linuxos.Kernel, opts ReserveOptions) (*Grant, error) {
	if opts.MemFraction <= 0 || opts.MemFraction > 1 {
		return nil, fmt.Errorf("ihk: bad MemFraction %v", opts.MemFraction)
	}
	if opts.Granule <= 0 {
		opts.Granule = int64(hw.Page2M)
	}
	node := lin.Partition().Node
	part, err := kernel.DefaultPartition(node, opts.OSCores)
	if err != nil {
		return nil, fmt.Errorf("ihk: %w", err)
	}
	g := &Grant{Part: part}
	for _, d := range node.Domains {
		want := int64(float64(lin.Phys().FreeBytes(d.ID)) * opts.MemFraction)
		want = want / opts.Granule * opts.Granule
		if want == 0 {
			continue
		}
		exts, got := lin.Phys().AllocUpTo(d.ID, want, opts.Granule)
		if got == 0 {
			return nil, fmt.Errorf("ihk: domain %d donated nothing", d.ID)
		}
		g.Extents = append(g.Extents, exts...)
	}
	g.Phys = mem.NewPhysView(node, g.Extents)
	return g, nil
}

// Package linuxos models the production Linux environment of the paper's
// baseline: a full-featured kernel (every syscall native), demand-paged
// memory with THP's alignment constraints, tick-driven time sharing, the
// residual noise of a tuned (nohz_full) HPC distribution, and the SNC-4
// NUMA-policy limitation that prevents "prefer MCDRAM, spill to DDR4" from
// being expressed with standard interfaces.
package linuxos

import (
	"fmt"
	"slices"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
	"mklite/internal/noise"
	"mklite/internal/sched"
)

// Config tunes the Linux model.
type Config struct {
	// OSCores is the number of cores reserved for system services (the
	// paper reserves 4).
	OSCores int
	// Tuned selects the nohz_full HPC configuration; false models a
	// stock distribution kernel (used in ablations).
	Tuned bool
	// THP enables transparent huge pages for anonymous memory.
	THP bool
	// PreferredDomain, if >= 0, is the single NUMA domain a numactl -p
	// style policy prefers. Linux's set_mempolicy accepts only one
	// preferred domain: in SNC-4 mode "four such domains exist, but the
	// current Linux implementation allows only one to be listed".
	PreferredDomain int
	// KernelReservation is physical memory claimed by the kernel image
	// and unmovable structures at boot, spread over the DDR domains.
	KernelReservation int64
	// ExtraNoise appends interference sources to the boot profile. The
	// fault layer's daemon-storm mode injects its rogue daemon here: on a
	// full-weight kernel nothing shields the application cores, so the
	// storm lands directly on them (the LWKs only feel it through
	// inflated offload round trips).
	ExtraNoise []noise.Source
	// Sched selects the scheduling policy of application cores; empty
	// means the Linux default (sched.CFS, whose tick cost is part of the
	// boot noise profile). sched.Tickless additionally drops the
	// tick-class noise sources from the profile while boot happens.
	Sched sched.Kind
}

// DefaultConfig is the paper's production Linux setup.
func DefaultConfig() Config {
	return Config{
		OSCores:           4,
		Tuned:             true,
		THP:               true,
		PreferredDomain:   -1,
		KernelReservation: 2 * hw.GiB,
	}
}

// Kernel is the Linux model.
type Kernel struct {
	kernel.Base
	cfg Config
	// ddr is the DDR4 order default heaps use; mapDomains is the mapping
	// order, ddr behind the preferred domain when one is set. Both are
	// derived once at boot and handed out as they are: their capacity
	// equals their length, so a caller's append copies.
	ddr, mapDomains []int
}

// Boot constructs a Linux kernel on the given node.
func Boot(node *hw.NodeSpec, cfg Config) (*Kernel, error) {
	if err := node.Validate(); err != nil {
		return nil, fmt.Errorf("linuxos: %w", err)
	}
	part, err := kernel.DefaultPartition(node, cfg.OSCores)
	if err != nil {
		return nil, fmt.Errorf("linuxos: %w", err)
	}
	phys := mem.NewPhys(node)
	// The kernel's own footprint: spread over DDR domains, in
	// scattered chunks (this is what later fragments McKernel's view).
	ddr := node.DomainsOfKind(hw.DDR4)
	if cfg.KernelReservation > 0 && len(ddr) > 0 {
		per := cfg.KernelReservation / int64(len(ddr))
		for _, d := range ddr {
			if _, err := phys.Fragment(d, per/8, phys.Capacity(d)/8); err != nil {
				return nil, fmt.Errorf("linuxos: reserving kernel memory: %w", err)
			}
		}
	}
	kind := cfg.Sched
	if kind == "" {
		kind = sched.CFS
	}
	pol, err := kernel.NewPolicy(kind, kernel.LinuxCosts())
	if err != nil {
		return nil, fmt.Errorf("linuxos: %w", err)
	}
	k := &Kernel{
		Base: kernel.Base{
			KName:  "linux",
			KType:  kernel.TypeLinux,
			KCaps:  linuxCaps(),
			KTable: kernel.NewTable(kernel.Native),
			KCosts: kernel.LinuxCosts(),
			KNoise: NoiseProfile(cfg),
			KPart:  part,
			KPhys:  phys,
			KSched: pol,
		},
		cfg:        cfg,
		ddr:        ddr,
		mapDomains: ddr,
	}
	if cfg.PreferredDomain >= 0 {
		k.mapDomains = slices.Clip(slices.Concat([]int{cfg.PreferredDomain}, ddr))
	}
	return k, nil
}

// NoiseProfile returns the noise profile Linux boots with under cfg: the
// tuned or untuned sources, without the tick-class ones under
// sched.Tickless (in any spelling sched.Parse accepts), then
// cfg.ExtraNoise. A node image prepared under one policy calls it for a
// view under another (cluster.Image.Sched).
func NoiseProfile(cfg Config) *noise.Profile {
	prof := noise.LinuxTuned()
	if !cfg.Tuned {
		prof = noise.LinuxUntuned()
	}
	if tickless(cfg.Sched) {
		// Dyntick: with a single HPC task per core the tick is switched
		// off outright, so the tick-class interference sources vanish.
		prof = prof.WithoutTicks()
	}
	for _, s := range cfg.ExtraNoise {
		prof = prof.WithSource(s)
	}
	return prof
}

// tickless reports whether kind parses as sched.Tickless. The empty kind,
// each kernel's default, is not, and is decided without building Parse's
// error.
func tickless(kind sched.Kind) bool {
	if kind == "" {
		return false
	}
	k, err := sched.Parse(string(kind))
	return err == nil && k == sched.Tickless
}

// linuxCaps: Linux has every capability the suite knows about.
func linuxCaps() kernel.CapSet {
	return kernel.CapSet{}.With(
		kernel.CapFullFork,
		kernel.CapPtraceFull,
		kernel.CapBrkShrinkReleases,
		kernel.CapMovePages,
		kernel.CapExoticCloneFlags,
		kernel.CapLinuxMisc,
		kernel.CapProcSysFull,
		kernel.CapToolsOnLinuxSide,
		kernel.CapTimeSharing,
	)
}

// Config returns the boot configuration.
func (k *Kernel) Config() Config { return k.cfg }

// MapPolicy implements kernel.Kernel. Anonymous memory is demand paged
// onto the DDR domains (first-touch local); a preferred domain, when set,
// is consulted first — but it is a single domain, which is exactly why
// SNC-4 MCDRAM spill cannot be expressed (section III-B: "We chose to use
// DDR4 RAM only for CCS-QCD when running on Linux").
func (k *Kernel) MapPolicy(kind mem.VMAKind) mem.Policy {
	maxPage := hw.Page4K
	if k.cfg.THP && kind != mem.VMADevice {
		maxPage = hw.Page2M
	}
	return mem.Policy{
		Domains: k.mapDomains,
		MaxPage: maxPage,
		Demand:  true,
	}
}

// NewHeap implements kernel.Kernel with the demand-paged Linux heap.
func (k *Kernel) NewHeap(as *mem.AddrSpace, limit int64, domains []int) (mem.Heap, error) {
	if domains == nil {
		domains = k.ddr
	}
	return mem.NewLinuxHeap(as, limit, domains, k.cfg.THP)
}

var _ kernel.Kernel = (*Kernel)(nil)

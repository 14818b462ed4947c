package linuxos

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
)

// ProcFS synthesises the /proc and /sys surface tools depend on. Full
// Linux compatibility "requires ... mimicking the complex and ever changing
// pseudo file systems"; mOS mostly reuses this implementation while
// McKernel re-implements a subset reflecting its own resource partition
// (section II-D4).
type ProcFS struct {
	// Construction inputs, retained so the file map can be synthesised
	// lazily: every kernel boot creates a ProcFS, but most simulated runs
	// never read a pseudo-file, and formatting cpuinfo for 272 logical
	// CPUs per boot dominated setup time. Even the visible CPU and domain
	// lists are derived on first access. The content is a pure function
	// of these inputs, so deferral is invisible to readers.
	node *hw.NodeSpec
	// part restricts the view to an LWK's resource partition when
	// partial is set; otherwise the whole node is visible.
	part    kernel.Partition
	partial bool

	files map[string]string
}

// NewProcFS builds the full Linux pseudo-filesystem view of a node: all
// CPUs and all NUMA domains are visible.
func NewProcFS(node *hw.NodeSpec) *ProcFS {
	return &ProcFS{node: node}
}

// NewPartitionProcFS builds the view an LWK exposes: only the partition's
// application cores and its assigned memory appear — "McKernel needs to
// implement various /sys and /proc files to reflect the resource partition
// assigned to the LWK".
func NewPartitionProcFS(node *hw.NodeSpec, part kernel.Partition) *ProcFS {
	return &ProcFS{node: node, part: part, partial: true}
}

// view returns the logical CPUs (sorted) and NUMA domains the surface
// shows.
func (p *ProcFS) view() ([]int, []hw.DomainSpec) {
	if !p.partial {
		return allCPUs(p.node), p.node.Domains
	}
	var cpus []int
	for _, c := range p.part.AppCores {
		cpus = append(cpus, p.node.Cores[c].CPUs...)
	}
	sort.Ints(cpus)
	var domains []hw.DomainSpec
	appDoms := map[int]bool{}
	for _, d := range p.part.AppDomains() {
		appDoms[d] = true
	}
	for _, d := range p.node.Domains {
		if appDoms[d.ID] || d.Mem.Kind == hw.MCDRAM {
			domains = append(domains, d)
		}
	}
	return cpus, domains
}

func allCPUs(node *hw.NodeSpec) []int {
	var cpus []int
	for _, c := range node.Cores {
		cpus = append(cpus, c.CPUs...)
	}
	sort.Ints(cpus)
	return cpus
}

// ensure synthesises the file map on first access.
func (p *ProcFS) ensure() {
	if p.files == nil {
		cpus, domains := p.view()
		buildProcFS(p, p.node, cpus, domains)
	}
}

func buildProcFS(p *ProcFS, node *hw.NodeSpec, cpus []int, domains []hw.DomainSpec) {
	p.files = make(map[string]string)

	var cpuinfo strings.Builder
	for _, cpu := range cpus {
		core, err := node.CoreOfCPU(cpu)
		if err != nil {
			continue
		}
		fmt.Fprintf(&cpuinfo, "processor\t: %d\ncore id\t\t: %d\ncpu MHz\t\t: %.0f\n\n",
			cpu, core.ID, node.CoreFreqGHz*1000)
	}
	p.files["/proc/cpuinfo"] = cpuinfo.String()

	var total int64
	for _, d := range domains {
		total += d.Mem.Capacity
	}
	p.files["/proc/meminfo"] = fmt.Sprintf("MemTotal: %d kB\nMemFree: %d kB\nHugePagesize: 2048 kB\n",
		total/1024, total/1024)
	p.files["/proc/stat"] = fmt.Sprintf("cpu  0 0 0 0\nctxt 0\nbtime 0\nprocesses 1\nncpus %d\n", len(cpus))
	p.files["/proc/self/status"] = "Name:\tapp\nState:\tR (running)\nThreads:\t1\n"
	p.files["/proc/self/maps"] = "00400000-00452000 r-xp 00000000 00:00 0 app\n"

	p.files["/sys/devices/system/cpu/online"] = rangeString(cpus)
	var nodeIDs []int
	for _, d := range domains {
		nodeIDs = append(nodeIDs, d.ID)
	}
	sort.Ints(nodeIDs)
	p.files["/sys/devices/system/node/online"] = rangeString(nodeIDs)
	for _, d := range domains {
		prefix := fmt.Sprintf("/sys/devices/system/node/node%d", d.ID)
		p.files[prefix+"/meminfo"] = fmt.Sprintf("Node %d MemTotal: %d kB\n", d.ID, d.Mem.Capacity/1024)
		var local []int
		for _, cpu := range d.CPUs {
			if contains(cpus, cpu) {
				local = append(local, cpu)
			}
		}
		p.files[prefix+"/cpulist"] = rangeString(local)
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// rangeString formats a sorted int list in Linux cpulist notation
// ("0-3,68-71").
func rangeString(xs []int) string {
	if len(xs) == 0 {
		return ""
	}
	var b strings.Builder
	start, prev := xs[0], xs[0]
	flush := func() {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if start == prev {
			fmt.Fprintf(&b, "%d", start)
		} else {
			fmt.Fprintf(&b, "%d-%d", start, prev)
		}
	}
	for _, x := range xs[1:] {
		if x == prev+1 {
			prev = x
			continue
		}
		flush()
		start, prev = x, x
	}
	flush()
	return b.String()
}

// Read returns the content of a pseudo-file.
func (p *ProcFS) Read(path string) (string, error) {
	p.ensure()
	if c, ok := p.files[path]; ok {
		return c, nil
	}
	return "", fmt.Errorf("procfs: %s: no such file", path)
}

// Has reports whether the path exists.
func (p *ProcFS) Has(path string) bool {
	p.ensure()
	_, ok := p.files[path]
	return ok
}

// List returns all paths in sorted order.
func (p *ProcFS) List() []string {
	p.ensure()
	return slices.Sorted(maps.Keys(p.files))
}

// NumaMaps renders a /proc/<pid>/numa_maps-style view of an address space:
// one line per VMA with its policy, per-domain residency and page-size
// hints. Tools like numastat parse this surface; McKernel must reimplement
// it, mOS reuses this implementation (section II-D4).
func NumaMaps(as *mem.AddrSpace) string {
	var b strings.Builder
	for _, v := range as.VMAs() {
		fmt.Fprintf(&b, "%012x %s %s", v.Start, policyName(v), v.Kind)
		doms := v.DomainsOf()
		for _, d := range slices.Sorted(maps.Keys(doms)) {
			fmt.Fprintf(&b, " N%d=%d", d, doms[d]/4096)
		}
		fmt.Fprintf(&b, " kernelpagesize_kB=%d\n", largestPageKB(v))
	}
	return b.String()
}

func policyName(v *mem.VMA) string {
	if len(v.Pol.Domains) == 1 {
		return fmt.Sprintf("bind:%d", v.Pol.Domains[0])
	}
	if v.Pol.Demand {
		return "default"
	}
	return fmt.Sprintf("prefer:%d", v.Pol.Domains[0])
}

func largestPageKB(v *mem.VMA) int64 {
	var max int64 = 4096
	for _, b := range v.Backings {
		if int64(b.Page) > max {
			max = int64(b.Page)
		}
	}
	return max / 1024
}

package linuxos

import (
	"slices"
	"testing"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
	"mklite/internal/sched"
)

func bootDefault(t *testing.T) *Kernel {
	t.Helper()
	k, err := Boot(hw.KNL7250SNC4(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBootBasics(t *testing.T) {
	k := bootDefault(t)
	if k.Type() != kernel.TypeLinux || k.Name() != "linux" {
		t.Fatal("identity")
	}
	if len(k.Partition().AppCores) != 64 || len(k.Partition().OSCores) != 4 {
		t.Fatal("partition")
	}
	if !k.Sched().Preemptive() {
		t.Fatal("Linux must time-share")
	}
}

func TestBootRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OSCores = 100
	if _, err := Boot(hw.KNL7250SNC4(), cfg); err == nil {
		t.Fatal("bad partition accepted")
	}
}

func TestAllSyscallsNative(t *testing.T) {
	k := bootDefault(t)
	if n := k.Table().Count(kernel.Native); n != kernel.NumSyscalls {
		t.Fatalf("only %d/%d syscalls native", n, kernel.NumSyscalls)
	}
	if k.SyscallTime(kernel.SysOpen) != k.Costs().Trap {
		t.Fatal("native syscall should cost one trap")
	}
}

func TestLinuxHasAllCaps(t *testing.T) {
	k := bootDefault(t)
	for _, c := range []kernel.Capability{
		kernel.CapFullFork, kernel.CapPtraceFull, kernel.CapBrkShrinkReleases,
		kernel.CapMovePages, kernel.CapExoticCloneFlags, kernel.CapLinuxMisc,
	} {
		if !k.Caps().Has(c) {
			t.Fatalf("missing capability %v", c)
		}
	}
}

func TestKernelReservationFragmentsDDR(t *testing.T) {
	k := bootDefault(t)
	// Kernel boot reservation must consume memory and break contiguity
	// somewhat.
	if k.Phys().UsedBytes(0) == 0 {
		t.Fatal("no kernel reservation in domain 0")
	}
	if k.Phys().LargestFree(0) == k.Phys().Capacity(0) {
		t.Fatal("reservation did not fragment the domain")
	}
}

func TestMapPolicyDefaultsToDDRDemand(t *testing.T) {
	k := bootDefault(t)
	pol := k.MapPolicy(mem.VMAAnon)
	if !pol.Demand {
		t.Fatal("Linux anon memory must be demand paged")
	}
	if pol.MaxPage != hw.Page2M {
		t.Fatalf("THP max page = %v", pol.MaxPage)
	}
	node := k.Partition().Node
	for i, d := range node.DomainsOfKind(hw.DDR4) {
		if pol.Domains[i] != d {
			t.Fatalf("policy domains %v, want DDR first", pol.Domains)
		}
	}
}

func TestMapPolicySinglePreferredDomain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreferredDomain = 4 // one MCDRAM quadrant: all numactl -p can express
	k, err := Boot(hw.KNL7250SNC4(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol := k.MapPolicy(mem.VMAAnon)
	if pol.Domains[0] != 4 {
		t.Fatalf("preferred domain not first: %v", pol.Domains)
	}
	// Exactly one MCDRAM domain in the preference list: the SNC-4
	// limitation.
	mcdram := 0
	node := k.Partition().Node
	for _, d := range pol.Domains {
		if dom, err := node.Domain(d); err == nil && dom.Mem.Kind == hw.MCDRAM {
			mcdram++
		}
	}
	if mcdram != 1 {
		t.Fatalf("%d MCDRAM domains in Linux policy, want exactly 1", mcdram)
	}
}

func TestTHPOffUsesSmallPages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.THP = false
	k, _ := Boot(hw.KNL7250SNC4(), cfg)
	if k.MapPolicy(mem.VMAAnon).MaxPage != hw.Page4K {
		t.Fatal("THP off should cap at 4K")
	}
}

func TestNewHeapIsLinuxHeap(t *testing.T) {
	k := bootDefault(t)
	as := mem.NewAddrSpace(k.Phys())
	h, err := k.NewHeap(as, hw.GiB, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Sbrk(1 * hw.MiB)
	w := h.TouchUpTo(1 * hw.MiB)
	if w.Faults == 0 {
		t.Fatal("Linux heap did not demand fault")
	}
}

func TestUntunedNoisier(t *testing.T) {
	tuned := bootDefault(t)
	cfg := DefaultConfig()
	cfg.Tuned = false
	untuned, _ := Boot(hw.KNL7250SNC4(), cfg)
	if untuned.Noise().ExpectedRate(1) <= tuned.Noise().ExpectedRate(1) {
		t.Fatal("untuned kernel should be noisier")
	}
}

// TestNoiseProfileTicklessSpellings: every spelling of tickless that
// sched.Parse accepts drops the tick sources, as "tickless" does, so a
// profile cannot keep its tick under a tickless policy.
func TestNoiseProfileTicklessSpellings(t *testing.T) {
	names := func(kind sched.Kind) []string {
		cfg := DefaultConfig()
		cfg.Sched = kind
		var out []string
		for _, s := range NoiseProfile(cfg).Sources {
			out = append(out, s.Name)
		}
		return out
	}
	want := names(sched.Tickless)
	if slices.Equal(want, names("")) {
		t.Fatalf("tickless keeps every default source: %q", want)
	}
	for _, kind := range []sched.Kind{"Tickless", " tickless ", "TICKLESS"} {
		if got := names(kind); !slices.Equal(got, want) {
			t.Errorf("sched %q: sources %q, tickless %q", kind, got, want)
		}
	}
}

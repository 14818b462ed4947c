package mem

import (
	"testing"
	"testing/quick"

	"mklite/internal/hw"
	"mklite/internal/sim"
)

func TestProtString(t *testing.T) {
	if (ProtRead | ProtWrite).String() != "rw-" {
		t.Fatalf("rw = %q", (ProtRead | ProtWrite).String())
	}
	if (ProtRead | ProtExec).String() != "r-x" {
		t.Fatal("rx")
	}
	if Prot(0).String() != "---" {
		t.Fatal("none")
	}
}

func TestMapDefaultsToReadWrite(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	kind, pol := mem4kPolicy()
	v, _ := as.Map(1*hw.MiB, kind, pol)
	if !v.Prot.Has(ProtRead|ProtWrite) || v.Prot.Has(ProtExec) {
		t.Fatalf("default prot %v", v.Prot)
	}
}

// mem4kPolicy is a small helper for this file.
func mem4kPolicy() (VMAKind, Policy) {
	return VMAAnon, Policy{Domains: []int{0}, MaxPage: hw.Page4K}
}

func TestProtectWholeArea(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	kind, pol := mem4kPolicy()
	v, _ := as.Map(1*hw.MiB, kind, pol)
	got, err := as.Protect(v, 0, 1*hw.MiB, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	if got != v || v.Prot != ProtRead {
		t.Fatal("whole-area protect should update in place")
	}
	if len(as.VMAs()) != 1 {
		t.Fatal("no split expected")
	}
}

func TestProtectInteriorSplitsThreeWays(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	kind, pol := mem4kPolicy()
	v, _ := as.Map(1*hw.MiB, kind, pol)
	mid, err := as.Protect(v, 256*hw.KiB, 512*hw.KiB, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(as.VMAs()) != 3 {
		t.Fatalf("%d areas after interior protect, want 3", len(as.VMAs()))
	}
	if mid.Prot != ProtRead || mid.Size != 512*hw.KiB {
		t.Fatalf("middle area: prot %v size %d", mid.Prot, mid.Size)
	}
	// Neighbours keep the original protection.
	for _, w := range as.VMAs() {
		if w != mid && w.Prot != (ProtRead|ProtWrite) {
			t.Fatalf("neighbour prot %v", w.Prot)
		}
	}
	// Sizes sum to the original.
	var total int64
	for _, w := range as.VMAs() {
		total += w.Size
	}
	if total != 1*hw.MiB {
		t.Fatalf("sizes sum to %d", total)
	}
}

func TestProtectBadRange(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	kind, pol := mem4kPolicy()
	v, _ := as.Map(1*hw.MiB, kind, pol)
	if _, err := as.Protect(v, -1, 100, ProtRead); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := as.Protect(v, 0, 2*hw.MiB, ProtRead); err == nil {
		t.Fatal("oversized range accepted")
	}
}

func TestSplitPreservesPhysicalAccounting(t *testing.T) {
	phys := newKNLPhys()
	as := NewAddrSpace(phys)
	kind, pol := mem4kPolicy()
	v, _ := as.Map(8*hw.MiB, kind, pol)
	used := phys.UsedBytes(0)
	if _, err := as.Protect(v, 2*hw.MiB, 4*hw.MiB, ProtRead); err != nil {
		t.Fatal(err)
	}
	if phys.UsedBytes(0) != used {
		t.Fatal("split changed physical occupancy")
	}
	var pop int64
	for _, w := range as.VMAs() {
		pop += w.Populated
	}
	if pop != 8*hw.MiB {
		t.Fatalf("populated sums to %d", pop)
	}
	if err := phys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitDemandArea(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	v, _ := as.Map(8*hw.MiB, VMAAnon, Policy{Domains: []int{0}, MaxPage: hw.Page4K, Demand: true})
	as.Touch(v, 0, 3*hw.MiB) // partial population
	mid, err := as.Protect(v, 2*hw.MiB, 2*hw.MiB, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	// Left has 2 MiB populated, middle 1 MiB, right 0.
	if v.Populated != 2*hw.MiB {
		t.Fatalf("left populated %d", v.Populated)
	}
	if mid.Populated != 1*hw.MiB {
		t.Fatalf("middle populated %d", mid.Populated)
	}
	if !mid.DemandActive {
		t.Fatal("split lost demand flag")
	}
}

func TestMigrateMovesBacking(t *testing.T) {
	phys := newKNLPhys()
	as := NewAddrSpace(phys)
	v, _ := as.Map(64*hw.MiB, VMAAnon, Policy{Domains: []int{0}, MaxPage: hw.Page2M})
	if v.DomainsOf()[0] != 64*hw.MiB {
		t.Fatal("initial placement")
	}
	w, err := as.Migrate(v, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if w.CopiedBytes != 64*hw.MiB {
		t.Fatalf("copied %d", w.CopiedBytes)
	}
	doms := v.DomainsOf()
	if doms[4] != 64*hw.MiB || doms[0] != 0 {
		t.Fatalf("after migrate: %v", doms)
	}
	if phys.UsedBytes(0) != 0 || phys.UsedBytes(4) != 64*hw.MiB {
		t.Fatal("physical accounting after migrate")
	}
	if err := phys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateIdempotent(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	v, _ := as.Map(8*hw.MiB, VMAAnon, Policy{Domains: []int{0}, MaxPage: hw.Page2M})
	w, err := as.Migrate(v, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if w.CopiedBytes != 0 {
		t.Fatal("migrating to the current domain should copy nothing")
	}
}

func TestMigrateFullTargetReportsFailure(t *testing.T) {
	phys := newKNLPhys()
	as := NewAddrSpace(phys)
	// Fill MCDRAM domain 4 completely.
	blocker, _ := as.Map(4*hw.GiB, VMAAnon, Policy{Domains: []int{4}, MaxPage: hw.Page1G})
	_ = blocker
	v, _ := as.Map(8*hw.MiB, VMAAnon, Policy{Domains: []int{0}, MaxPage: hw.Page2M})
	w, err := as.Migrate(v, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if w.FailedBytes != 8*hw.MiB || w.CopiedBytes != 0 {
		t.Fatalf("expected full failure: %+v", w)
	}
	// Pages stayed where they were.
	if v.DomainsOf()[0] != 8*hw.MiB {
		t.Fatal("failed migration moved pages")
	}
}

func TestMigrateRejectsEmptyTargets(t *testing.T) {
	as := NewAddrSpace(newKNLPhys())
	kind, pol := mem4kPolicy()
	v, _ := as.Map(1*hw.MiB, kind, pol)
	if _, err := as.Migrate(v, nil); err == nil {
		t.Fatal("empty target list accepted")
	}
}

// Property: splitting at random offsets conserves total size, populated
// bytes and physical occupancy.
func TestSplitConservationProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		phys := newKNLPhys()
		as := NewAddrSpace(phys)
		size := int64(1+rng.Intn(16)) * hw.MiB
		v, err := as.Map(size, VMAAnon, Policy{Domains: []int{0}, MaxPage: hw.Page4K})
		if err != nil {
			return false
		}
		used := phys.UsedBytes(0)
		for i := 0; i < 4 && len(as.VMAs()) > 0; i++ {
			areas := as.VMAs()
			w := areas[rng.Intn(len(areas))]
			if w.Size <= int64(hw.Page4K) {
				continue
			}
			off := int64(rng.Intn(int(w.Size/int64(hw.Page4K)))) * int64(hw.Page4K)
			ln := w.Size - off
			if off == 0 && ln == w.Size {
				continue
			}
			if _, err := as.Protect(w, off, ln, ProtRead); err != nil {
				return false
			}
		}
		var total, pop int64
		for _, w := range as.VMAs() {
			total += w.Size
			pop += w.Populated
		}
		_ = v
		return total == size && pop == size && phys.UsedBytes(0) == used &&
			phys.CheckInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

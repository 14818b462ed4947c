package cluster

import (
	"slices"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/mem"
)

// orderKernels boots every kernel the harness runs, plus Linux with a
// numactl -p style preferred domain (whose mapping order differs from its
// heap order).
func orderKernels(t *testing.T) map[string]kernel.Kernel {
	t.Helper()
	out := map[string]kernel.Kernel{}
	for _, bk := range benchKernels {
		k, err := bootKernel(Job{App: apps.MiniFE(), Kernel: bk.kt, Nodes: 1}.normalized())
		if err != nil {
			t.Fatal(err)
		}
		out[bk.name] = k
	}
	cfg := linuxos.DefaultConfig()
	cfg.PreferredDomain = 4
	k, err := bootKernel(Job{App: apps.MiniFE(), Kernel: kernel.TypeLinux, Nodes: 1, Linux: &cfg}.normalized())
	if err != nil {
		t.Fatal(err)
	}
	out["linux-preferred"] = k
	return out
}

// A kernel derives its domain orders once at boot and hands the same slice
// to every MapPolicy and NewHeap caller. Callers may append to the result
// or replace it; neither may change what the next caller gets.
func TestKernelOrdersSurviveCallerAppends(t *testing.T) {
	for name, k := range orderKernels(t) {
		for _, kind := range []mem.VMAKind{mem.VMAAnon, mem.VMAShared, mem.VMAHeap, mem.VMADevice} {
			pol := k.MapPolicy(kind)
			want := slices.Clone(pol.Domains)
			if len(want) == 0 {
				t.Fatalf("%s %v: empty domain order", name, kind)
			}
			if cap(pol.Domains) != len(pol.Domains) {
				t.Errorf("%s %v: order has spare capacity %d > %d; an append would write the kernel's copy",
					name, kind, cap(pol.Domains), len(pol.Domains))
			}
			pol.Domains = append(pol.Domains, 99)
			pol.Domains[0] = 98 // the appended copy, not the kernel's
			if got := k.MapPolicy(kind).Domains; !slices.Equal(got, want) {
				t.Errorf("%s %v: next MapPolicy order %v after a caller append, want %v", name, kind, got, want)
			}
		}

		heapOrder := func() []int {
			as := mem.NewAddrSpace(k.Phys())
			if _, err := k.NewHeap(as, 64*hw.MiB, nil); err != nil {
				t.Fatal(err)
			}
			return as.VMAs()[0].Pol.Domains
		}
		first := heapOrder()
		want := slices.Clone(first)
		if cap(first) != len(first) {
			t.Errorf("%s heap: order has spare capacity %d > %d", name, cap(first), len(first))
		}
		grown := append(first, 99)
		grown[0] = 98
		if got := heapOrder(); !slices.Equal(got, want) {
			t.Errorf("%s heap: next NewHeap order %v after a caller append, want %v", name, got, want)
		}
	}
}

// The ranks of one quadrant share the quadrant's orders; an append through
// one rank's VMA policy, and every memory operation on that rank's areas,
// must leave the other rank's policy as it was.
func TestRankVMAsShareQuadrantOrdersIndependently(t *testing.T) {
	for _, app := range []*apps.Spec{apps.MiniFE(), apps.LAMMPS()} {
		for _, bk := range benchKernels {
			name := app.Name + "/" + bk.name
			j := Job{App: app, Kernel: bk.kt, Nodes: 64, Seed: 1}.normalized()
			k, err := bootKernel(j)
			if err != nil {
				t.Fatal(err)
			}
			ns, err := setupNode(k, j)
			if err != nil {
				t.Fatal(err)
			}
			a, b := ns.ranks[0], ns.ranks[1]
			if a.homeQuad != b.homeQuad {
				t.Fatalf("%s: ranks 0 and 1 in quadrants %d and %d", name, a.homeQuad, b.homeQuad)
			}
			areas := func(rs *rankState) []*mem.VMA {
				out := []*mem.VMA{rs.ws}
				if rs.shm != nil {
					out = append(out, rs.shm)
				}
				return out
			}
			var want [][]int
			for i, v := range areas(b) {
				if w := areas(a)[i]; &w.Pol.Domains[0] != &v.Pol.Domains[0] {
					t.Errorf("%s: ranks 0 and 1 derived separate %v orders", name, v.Kind)
				}
				want = append(want, slices.Clone(v.Pol.Domains))
			}

			for _, v := range areas(a) {
				grown := append(v.Pol.Domains, 99)
				grown[0] = 98
				a.as.Touch(v, 0, v.Size)
				a.as.Trim(v, v.Populated/2)
				if _, err := a.as.Protect(v, 0, int64(hw.Page2M), mem.ProtRead); err != nil {
					t.Fatal(err)
				}
			}
			a.as.ReleaseAll()

			for i, v := range areas(b) {
				if !slices.Equal(v.Pol.Domains, want[i]) {
					t.Errorf("%s: rank 1 %v order became %v, want %v", name, v.Kind, v.Pol.Domains, want[i])
				}
			}
			if last := ns.ranks[len(ns.ranks)-1]; last.homeQuad != 3 || &last.ws.Pol.Domains[0] == &b.ws.Pol.Domains[0] {
				t.Errorf("%s: quadrant 3 shares quadrant 0's working-set order", name)
			}
		}
	}
}

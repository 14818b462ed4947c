package ihk

import (
	"testing"

	"mklite/internal/hw"
	"mklite/internal/linuxos"
	"mklite/internal/mem"
	"mklite/internal/sim"
)

func bootLinux(t *testing.T) *linuxos.Kernel {
	t.Helper()
	k, err := linuxos.Boot(hw.KNL7250SNC4(), linuxos.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestReserveCarvesMostMemory(t *testing.T) {
	lin := bootLinux(t)
	g, err := Reserve(lin, DefaultReserveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Part.AppCores) != 64 {
		t.Fatalf("LWK cores = %d", len(g.Part.AppCores))
	}
	// The LWK view must hold ~95% of each MCDRAM domain.
	for d := 4; d < 8; d++ {
		got := g.Phys.Capacity(d)
		if got < 3*hw.GiB {
			t.Fatalf("MCDRAM domain %d grant = %d", d, got)
		}
	}
	// Linux keeps the remainder.
	if lin.Phys().FreeBytes(4) == 0 {
		t.Fatal("Linux kept no MCDRAM at all")
	}
}

func TestReserveInheritsFragmentation(t *testing.T) {
	// Late reservation cannot produce 1 GiB-contiguous DDR blocks beyond
	// what post-boot Linux still had: largest grant block <= largest
	// Linux free block before the carve.
	lin := bootLinux(t)
	before := lin.Phys().LargestFree(0)
	g, err := Reserve(lin, DefaultReserveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Phys.LargestFree(0); got > before {
		t.Fatalf("grant contiguity %d exceeds donor's %d", got, before)
	}
}

func TestReserveAllocatesFromLWKView(t *testing.T) {
	lin := bootLinux(t)
	g, err := Reserve(lin, DefaultReserveOptions())
	if err != nil {
		t.Fatal(err)
	}
	as := mem.NewAddrSpace(g.Phys)
	v, err := as.Map(2*hw.GiB, mem.VMAAnon, mem.Policy{
		Domains: []int{4, 5, 6, 7},
		MaxPage: hw.Page2M,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Populated != 2*hw.GiB {
		t.Fatal("LWK mapping not backed")
	}
}

func TestReserveBadOptions(t *testing.T) {
	lin := bootLinux(t)
	opts := DefaultReserveOptions()
	opts.MemFraction = 0
	if _, err := Reserve(lin, opts); err == nil {
		t.Fatal("zero fraction accepted")
	}
	opts = DefaultReserveOptions()
	opts.OSCores = 99
	if _, err := Reserve(lin, opts); err == nil {
		t.Fatal("bad core split accepted")
	}
}

func TestIKCTopologyAwareLatency(t *testing.T) {
	lin := bootLinux(t)
	ikc := NewIKC(lin.Partition())
	// OS cores 0-3 live in quadrant 0. App core 5 (quadrant 0) is local;
	// app core 40 (quadrant 2) is remote.
	local := ikc.OneWay(5, 0)
	remote := ikc.OneWay(40, 0)
	if local >= remote {
		t.Fatalf("local %v not cheaper than remote %v", local, remote)
	}
	if ikc.RoundTrip(5, 0) != 2*local {
		t.Fatal("round trip != 2x one way")
	}
}

func TestIKCBestRoundTrip(t *testing.T) {
	lin := bootLinux(t)
	ikc := NewIKC(lin.Partition())
	rtt, err := ikc.BestRoundTrip(5)
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 2*ikc.LocalLatency {
		t.Fatalf("best RTT from same-quadrant core = %v", rtt)
	}
}

func TestOffloadServerSingleCall(t *testing.T) {
	lin := bootLinux(t)
	eng := sim.NewEngine(1)
	ikc := NewIKC(lin.Partition())
	srv := NewOffloadServer(eng, ikc, 1)
	var took sim.Duration
	eng.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		if err := srv.Offload(p, 5, 2*sim.Microsecond); err != nil {
			t.Error(err)
		}
		took = sim.Duration(p.Now() - start)
	})
	eng.RunUntil(sim.Time(sim.Second))
	want := 2*ikc.LocalLatency + 2*sim.Microsecond
	if took != want {
		t.Fatalf("offload took %v, want %v", took, want)
	}
	if srv.Serviced != 1 {
		t.Fatalf("serviced = %d", srv.Serviced)
	}
}

func TestOffloadServerQueueing(t *testing.T) {
	// Eight simultaneous offloads onto one proxy worker must serialise:
	// the last caller waits ~8 service times.
	lin := bootLinux(t)
	eng := sim.NewEngine(1)
	ikc := NewIKC(lin.Partition())
	srv := NewOffloadServer(eng, ikc, 1)
	service := 5 * sim.Microsecond
	var maxTook sim.Duration
	for i := 0; i < 8; i++ {
		core := 5 + i
		eng.Spawn("caller", func(p *sim.Proc) {
			start := p.Now()
			if err := srv.Offload(p, core, service); err != nil {
				t.Error(err)
			}
			if took := sim.Duration(p.Now() - start); took > maxTook {
				maxTook = took
			}
		})
	}
	eng.RunUntil(sim.Time(sim.Second))
	if srv.Serviced != 8 {
		t.Fatalf("serviced = %d", srv.Serviced)
	}
	if maxTook < 8*service {
		t.Fatalf("no queueing observed: max %v < %v", maxTook, 8*service)
	}
}

func TestOffloadServerMoreWorkersLessQueueing(t *testing.T) {
	lin := bootLinux(t)
	run := func(workers int) sim.Duration {
		eng := sim.NewEngine(1)
		srv := NewOffloadServer(eng, NewIKC(lin.Partition()), workers)
		var maxTook sim.Duration
		for i := 0; i < 16; i++ {
			core := 5 + i
			eng.Spawn("c", func(p *sim.Proc) {
				start := p.Now()
				srv.Offload(p, core, 5*sim.Microsecond)
				if took := sim.Duration(p.Now() - start); took > maxTook {
					maxTook = took
				}
			})
		}
		eng.RunUntil(sim.Time(sim.Second))
		return maxTook
	}
	if run(4) >= run(1) {
		t.Fatal("more proxy workers did not reduce offload tail latency")
	}
}

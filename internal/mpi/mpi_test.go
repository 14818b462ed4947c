package mpi

import (
	"testing"
	"testing/quick"

	"mklite/internal/fabric"
	"mklite/internal/sim"
)

func newComm(t *testing.T, nodes, rpn int) *Comm {
	t.Helper()
	c, err := New(fabric.OmniPath(), nodes, rpn)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(fabric.OmniPath(), 0, 1); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := New(fabric.OmniPath(), 1, 0); err == nil {
		t.Fatal("zero rpn accepted")
	}
	if _, err := New(nil, 1, 1); err == nil {
		t.Fatal("nil fabric accepted")
	}
}

func TestRanks(t *testing.T) {
	if newComm(t, 16, 64).Ranks() != 1024 {
		t.Fatal("ranks")
	}
}

func TestAllreduceScalesLogarithmically(t *testing.T) {
	const bytes = 1024
	t64 := newComm(t, 64, 64).Allreduce(bytes).Time
	t1024 := newComm(t, 1024, 64).Allreduce(bytes).Time
	t2048 := newComm(t, 2048, 64).Allreduce(bytes).Time
	if !(t64 < t1024 && t1024 < t2048) {
		t.Fatalf("allreduce not growing: %v %v %v", t64, t1024, t2048)
	}
	// Log scaling: doubling nodes from 1024 to 2048 adds one round, so
	// the increase must be far below 2x.
	if float64(t2048) > 1.3*float64(t1024) {
		t.Fatalf("allreduce growth super-linear: %v -> %v", t1024, t2048)
	}
}

func TestAllreduceSingleNodeUsesNoFabric(t *testing.T) {
	r := newComm(t, 1, 64).Allreduce(8)
	if r.Messages != 0 {
		t.Fatalf("single-node allreduce used %v fabric messages", r.Messages)
	}
	if r.IntraMessages == 0 {
		t.Fatal("no intra-node traffic")
	}
}

func TestAllreduceMessageAccounting(t *testing.T) {
	c := newComm(t, 1024, 64)
	r := c.Allreduce(64)
	// 10 leader rounds spread over 64 ranks/node.
	want := 10.0 / 64.0
	if r.Messages < want*0.99 || r.Messages > want*1.01 {
		t.Fatalf("messages/rank = %v, want ~%v", r.Messages, want)
	}
}

func TestBcastCheaperThanAllreduce(t *testing.T) {
	c := newComm(t, 256, 64)
	if c.Bcast(4096).Time >= c.Allreduce(4096).Time {
		t.Fatal("bcast should cost less than allreduce")
	}
}

func TestAllgatherVolumeDominates(t *testing.T) {
	c := newComm(t, 16, 4)
	small := c.Allgather(64).Time
	big := c.Allgather(64 << 10).Time
	if big <= small {
		t.Fatal("allgather insensitive to payload")
	}
}

func TestAlltoallScalesWithPeers(t *testing.T) {
	t16 := newComm(t, 16, 16).Alltoall(1024).Time
	t64 := newComm(t, 64, 16).Alltoall(1024).Time
	if t64 <= t16 {
		t.Fatal("alltoall not scaling with peers")
	}
	if r := newComm(t, 1, 1).Alltoall(1024); r.Time != 0 {
		t.Fatal("1-rank alltoall should be free")
	}
}

func TestHaloExchange(t *testing.T) {
	c := newComm(t, 64, 64)
	r := c.HaloExchange(64<<10, 6)
	if r.Time <= 0 {
		t.Fatal("halo exchange free")
	}
	if r.Messages <= 0 || r.IntraMessages <= 0 {
		t.Fatalf("halo message split: %+v", r)
	}
	if int(r.Messages)+int(r.IntraMessages) != 6 {
		t.Fatalf("halo neighbors %v+%v != 6", r.Messages, r.IntraMessages)
	}
}

func TestHaloExchangeSingleNodeStaysLocal(t *testing.T) {
	r := newComm(t, 1, 64).HaloExchange(64<<10, 6)
	if r.Messages != 0 {
		t.Fatal("single-node halo used the fabric")
	}
}

func TestHaloExchangeZeroNeighbors(t *testing.T) {
	if r := newComm(t, 4, 4).HaloExchange(1024, 0); r.Time != 0 {
		t.Fatal("no neighbors should cost nothing")
	}
}

// TestPointToPoint: a single message (the retransmit path's cost) crosses
// the fabric between nodes and stays in shared memory, and costs less, on
// one node.
func TestPointToPoint(t *testing.T) {
	multi := newComm(t, 8, 2).Retransmit(4096)
	single := newComm(t, 1, 2).Retransmit(4096)
	if single <= 0 || single >= multi {
		t.Fatalf("shared-memory resend %v should cost less than the fabric's %v", single, multi)
	}
}

func TestAllreducePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newComm(t, 2, 2).Allreduce(-1)
}

// Property: all collective times are non-negative and monotone in payload.
func TestCollectiveMonotoneProperty(t *testing.T) {
	c := newComm(t, 128, 64)
	check := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return c.Allreduce(x).Time <= c.Allreduce(y).Time &&
			c.Bcast(x).Time <= c.Bcast(y).Time &&
			c.HaloExchange(x, 6).Time <= c.HaloExchange(y, 6).Time
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyMagnitudes(t *testing.T) {
	// Sanity-check against real-machine magnitudes: an 8-byte allreduce
	// over 2048 KNL nodes takes tens to hundreds of microseconds.
	c := newComm(t, 2048, 64)
	d := c.Allreduce(8).Time
	if d < 5*sim.Microsecond || d > sim.Millisecond {
		t.Fatalf("2048-node allreduce = %v, implausible", d)
	}
}

package fabric

import (
	"testing"
	"testing/quick"

	"mklite/internal/sim"
)

func TestMaxHops(t *testing.T) {
	s := OmniPath()
	cases := []struct {
		nodes, want int
	}{{1, 0}, {24, 1}, {500, 3}, {2048, 5}}
	for _, c := range cases {
		if got := s.MaxHops(c.nodes); got != c.want {
			t.Fatalf("MaxHops(%d) = %d, want %d", c.nodes, got, c.want)
		}
	}
}

func TestPointToPointAlphaBeta(t *testing.T) {
	s := OmniPath()
	small := s.PointToPoint(8, 1)
	if small < s.BaseLatency {
		t.Fatalf("small message %v below base latency", small)
	}
	// 1 GiB over ~11.6 GiB/s should take ~86 ms.
	big := s.PointToPoint(1<<30, 1)
	if big < 80*sim.Millisecond || big > 95*sim.Millisecond {
		t.Fatalf("1 GiB transfer = %v", big)
	}
}

func TestPointToPointHopsAddLatency(t *testing.T) {
	s := OmniPath()
	if s.PointToPoint(8, 5) <= s.PointToPoint(8, 1) {
		t.Fatal("extra hops did not add latency")
	}
}

func TestPointToPointIntraNode(t *testing.T) {
	s := OmniPath()
	if d := s.PointToPoint(1<<20, 0); d >= s.BaseLatency {
		t.Fatalf("intra-node transfer %v not cheaper than fabric alpha", d)
	}
}

func TestPointToPointNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	OmniPath().PointToPoint(-1, 1)
}

func TestUserSpaceFabricOtherwiseIdentical(t *testing.T) {
	op, us := OmniPath(), UserSpaceFabric()
	if op.PointToPoint(4096, 3) != us.PointToPoint(4096, 3) {
		t.Fatal("wire model should be identical")
	}
}

// Property: transfer time is monotone non-decreasing in message size.
func TestPointToPointMonotoneProperty(t *testing.T) {
	s := OmniPath()
	check := func(a, b uint32, hops uint8) bool {
		h := int(hops%5) + 1
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return s.PointToPoint(x, h) <= s.PointToPoint(y, h)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

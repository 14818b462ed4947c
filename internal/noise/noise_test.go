package noise

import (
	"math"
	"testing"

	"mklite/internal/sim"
)

func TestSourceSampleWindowZeroForEmptyWindow(t *testing.T) {
	s := Source{Period: sim.Millisecond, Mean: sim.Microsecond}
	rng := sim.NewRNG(1)
	if d := s.sampleWindow(rng, 0, 0, new(rate)); d != 0 {
		t.Fatalf("detour in empty window: %v", d)
	}
}

func TestSourceCoreFilter(t *testing.T) {
	s := Source{
		Period:     sim.Millisecond,
		Mean:       10 * sim.Microsecond,
		CoreFilter: func(core int) bool { return core == 0 },
	}
	rng := sim.NewRNG(2)
	if d := s.sampleWindow(rng, 3, sim.Second, new(rate)); d != 0 {
		t.Fatalf("filtered core got detour %v", d)
	}
	if d := s.sampleWindow(rng, 0, sim.Second, new(rate)); d == 0 {
		t.Fatal("core 0 got no detour over a full second")
	}
}

func TestSourceMeanRate(t *testing.T) {
	// Over many windows, the sampled stolen fraction must approximate
	// Mean/Period.
	s := Source{Period: sim.Millisecond, Mean: 10 * sim.Microsecond, CV: 0.5}
	rng := sim.NewRNG(3)
	var total sim.Duration
	const windows = 2000
	window := 10 * sim.Millisecond
	for i := 0; i < windows; i++ {
		total += s.sampleWindow(rng, 0, window, new(rate))
	}
	got := float64(total) / float64(windows*int(window))
	want := s.ExpectedRate()
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("stolen fraction %v, want ~%v", got, want)
	}
}

func TestExpectedRate(t *testing.T) {
	s := Source{Period: sim.Millisecond, Mean: 10 * sim.Microsecond}
	if r := s.ExpectedRate(); math.Abs(r-0.01) > 1e-12 {
		t.Fatalf("rate = %v", r)
	}
	if (&Source{}).ExpectedRate() != 0 {
		t.Fatal("zero-period source rate")
	}
}

func TestPoissonMean(t *testing.T) {
	rng := sim.NewRNG(4)
	for _, lambda := range []float64{0.5, 5, 50} {
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += rng.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Fatalf("poisson(%v) mean = %v", lambda, mean)
		}
	}
	if rng.Poisson(0) != 0 || rng.Poisson(-1) != 0 {
		t.Fatal("poisson of non-positive lambda")
	}
}

func TestProfilesOrdering(t *testing.T) {
	// The whole point: LWK noise << tuned Linux noise << untuned Linux.
	rng := sim.NewRNG(5)
	window := 100 * sim.Millisecond
	const reps = 200
	sample := func(p *Profile) float64 {
		var total sim.Duration
		r := rng.Split()
		for i := 0; i < reps; i++ {
			total += p.DetourIn(r, 1, window)
		}
		return float64(total) / float64(reps*int(window))
	}
	lwk := sample(McKernelProfile())
	mos := sample(MOSProfile())
	tuned := sample(LinuxTuned())
	untuned := sample(LinuxUntuned())
	if !(lwk < tuned && mos < tuned) {
		t.Fatalf("LWK noise not below Linux: lwk=%v mos=%v linux=%v", lwk, mos, tuned)
	}
	if !(tuned < untuned) {
		t.Fatalf("tuned %v not below untuned %v", tuned, untuned)
	}
	if lwk > 1e-4 {
		t.Fatalf("LWK stolen fraction %v implausibly high", lwk)
	}
}

func TestCore0Noisier(t *testing.T) {
	p := LinuxTuned()
	if p.ExpectedRate(0) <= p.ExpectedRate(1) {
		t.Fatal("core 0 not noisier than core 1")
	}
}

func TestLinuxTailEventsExist(t *testing.T) {
	// Over enough windows, the tuned Linux profile must produce at least
	// one detour far above its mean — the heavy tail that causes the
	// collective cliffs.
	p := LinuxTuned()
	rng := sim.NewRNG(6)
	window := 50 * sim.Millisecond
	maxD := sim.Duration(0)
	for i := 0; i < 5000; i++ {
		if d := p.DetourIn(rng, 1, window); d > maxD {
			maxD = d
		}
	}
	if maxD < 500*sim.Microsecond {
		t.Fatalf("no tail event observed; max detour %v", maxD)
	}
}

func TestDeterministicSampling(t *testing.T) {
	p := LinuxTuned()
	a := p.DetourIn(sim.NewRNG(7), 1, sim.Second)
	b := p.DetourIn(sim.NewRNG(7), 1, sim.Second)
	if a != b {
		t.Fatalf("same seed, different detours: %v vs %v", a, b)
	}
}

func TestFWQSeparatesKernels(t *testing.T) {
	rng := sim.NewRNG(8)
	q := 1 * sim.Millisecond
	lwk := RunFWQ(rng.Split(), McKernelProfile(), 1, q, 2000, nil)
	lin := RunFWQ(rng.Split(), LinuxTuned(), 1, q, 2000, nil)
	if lwk.NoisePercent() >= lin.NoisePercent() {
		t.Fatalf("FWQ: lwk %.4f%% >= linux %.4f%%", lwk.NoisePercent(), lin.NoisePercent())
	}
	if lin.MaxStretchPercent() <= lin.NoisePercent() {
		t.Fatal("max stretch should exceed mean noise")
	}
}

func TestFWQSampleCountAndQuantum(t *testing.T) {
	r := RunFWQ(sim.NewRNG(9), McKernelProfile(), 0, sim.Millisecond, 100, nil)
	if len(r.Samples) != 100 {
		t.Fatalf("samples = %d", len(r.Samples))
	}
	if r.Quantum != sim.Millisecond {
		t.Fatal("quantum not recorded")
	}
	// No sample can be shorter than the pure work quantum.
	for _, s := range r.Samples {
		if s < r.Quantum.Micros() {
			t.Fatalf("sample %v below quantum", s)
		}
	}
}

func TestFTQUtilisationBounds(t *testing.T) {
	u := RunFWQ(sim.NewRNG(10), LinuxTuned(), 1, sim.Millisecond, 1000, nil).Utilization()
	if u.Min < 0 || u.Max > 1 {
		t.Fatalf("utilisation spans [%v, %v], outside [0,1]", u.Min, u.Max)
	}
	if u.Mean > 1 {
		t.Fatal("mean utilisation above 1")
	}
}

func TestFTQLWKNearIdeal(t *testing.T) {
	u := RunFWQ(sim.NewRNG(11), McKernelProfile(), 1, sim.Millisecond, 1000, nil).Utilization()
	if u.Mean < 0.999 {
		t.Fatalf("LWK FTQ utilisation %v, want ~1", u.Mean)
	}
}

func TestNoisePercentZeroOnQuiet(t *testing.T) {
	quiet := &Profile{Name: "none"}
	r := RunFWQ(sim.NewRNG(12), quiet, 0, sim.Millisecond, 50, nil)
	if r.NoisePercent() != 0 {
		t.Fatalf("quiet profile noise %v", r.NoisePercent())
	}
}

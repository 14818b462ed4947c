package mklite

import (
	"math"
	"strings"
	"testing"

	"mklite/internal/stats"
)

func TestAppsList(t *testing.T) {
	list := Apps()
	if len(list) != 8 {
		t.Fatalf("%d apps, want 8", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Name >= list[i].Name {
			t.Fatal("apps not sorted")
		}
	}
	for _, a := range list {
		if a.Unit == "" || a.RanksPerNode <= 0 || len(a.NodeCounts) == 0 {
			t.Fatalf("incomplete app info: %+v", a)
		}
	}
}

func TestParseKernel(t *testing.T) {
	for _, s := range []string{"linux", "mckernel", "mos"} {
		if _, err := ParseKernel(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseKernel("windows"); err == nil {
		t.Fatal("bad kernel accepted")
	}
}

func TestRunBasic(t *testing.T) {
	r, err := Run("milc", McKernel, 16, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.App != "milc" || r.Kernel != "McKernel" || r.Nodes != 16 {
		t.Fatalf("metadata: %+v", r)
	}
	if r.FOM <= 0 || r.ElapsedSeconds <= 0 {
		t.Fatal("outcome")
	}
	sum := 0.0
	for _, v := range r.Breakdown {
		sum += v
	}
	if sum <= 0 || sum > r.ElapsedSeconds*1.001 || sum < r.ElapsedSeconds*0.999 {
		t.Fatalf("breakdown sums to %v, elapsed %v", sum, r.ElapsedSeconds)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run("nope", Linux, 1, 1, nil); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := Run("milc", Kernel("bad"), 1, 1, nil); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := Run("milc", Linux, 0, 1, nil); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, _ := Run("hpcg", Linux, 8, 42, nil)
	b, _ := Run("hpcg", Linux, 8, 42, nil)
	if a.FOM != b.FOM {
		t.Fatal("same seed, different FOM")
	}
}

func TestCompare(t *testing.T) {
	rs, err := Compare("geofem", 32, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("%d results", len(rs))
	}
	if rs[0].Kernel != "Linux" || rs[1].Kernel != "McKernel" || rs[2].Kernel != "mOS" {
		t.Fatalf("kernel order: %v %v %v", rs[0].Kernel, rs[1].Kernel, rs[2].Kernel)
	}
}

func TestOptionsPlumbing(t *testing.T) {
	ddr, err := Run("lulesh2.0", McKernel, 1, 1, &Options{ForceDDROnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if ddr.MCDRAMBytes != 0 {
		t.Fatal("ForceDDROnly ignored")
	}
	off := false
	noHeap, err := Run("lulesh2.0", McKernel, 1, 1, &Options{HPCHeap: &off})
	if err != nil {
		t.Fatal(err)
	}
	if noHeap.HeapFaults == 0 {
		t.Fatal("HPCHeap=false should fault")
	}
	withHeap, _ := Run("lulesh2.0", McKernel, 1, 1, nil)
	if withHeap.HeapFaults != 0 {
		t.Fatal("default HPC heap should not fault")
	}
}

func TestUserSpaceFabricOption(t *testing.T) {
	opa, _ := Run("lammps", McKernel, 256, 1, nil)
	us, _ := Run("lammps", McKernel, 256, 1, &Options{UserSpaceFabric: true})
	if us.FOM <= opa.FOM {
		t.Fatal("user-space fabric should remove the offload penalty")
	}
}

func TestDescribe(t *testing.T) {
	lin, err := Describe(Linux)
	if err != nil {
		t.Fatal(err)
	}
	if lin.UnsupportedSyscalls != 0 || !lin.Preemptive {
		t.Fatalf("linux info: %+v", lin)
	}
	mck, _ := Describe(McKernel)
	if mck.UnsupportedSyscalls == 0 || mck.Preemptive {
		t.Fatalf("mckernel info: %+v", mck)
	}
	if mck.NoiseRate >= lin.NoiseRate {
		t.Fatal("LWK should be quieter")
	}
	if lin.OSCores != 4 || lin.AppCores != 64 {
		t.Fatalf("partition: %+v", lin)
	}
	if _, err := Describe(Kernel("bad")); err == nil {
		t.Fatal("bad kernel accepted")
	}
}

func TestMeasureNoise(t *testing.T) {
	samples := MeasureNoise(1, 2000)
	if len(samples) != 3 {
		t.Fatal("sample count")
	}
	byK := map[Kernel]NoiseSample{}
	for _, s := range samples {
		byK[s.Kernel] = s
	}
	if byK[McKernel].NoisePercent >= byK[Linux].NoisePercent {
		t.Fatalf("noise ordering: %+v", byK)
	}
	if byK[Linux].MaxStretchPercent < byK[Linux].NoisePercent {
		t.Fatal("max stretch below mean")
	}
}

func TestAppNodeCounts(t *testing.T) {
	counts, err := AppNodeCounts("lulesh2.0")
	if err != nil {
		t.Fatal(err)
	}
	if counts[len(counts)-1] != 1728 {
		t.Fatalf("lulesh counts: %v", counts)
	}
	if _, err := AppNodeCounts("nope"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestQuadrantOption(t *testing.T) {
	// In quadrant mode Linux can prefer MCDRAM with spill: CCS-QCD gets
	// faster than its SNC-4 DDR-only run.
	snc, err := Run("ccs-qcd", Linux, 16, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := Run("ccs-qcd", Linux, 16, 1, &Options{Quadrant: true})
	if err != nil {
		t.Fatal(err)
	}
	if quad.FOM <= snc.FOM {
		t.Fatalf("quadrant Linux (%v) should beat SNC-4 DDR-only (%v)", quad.FOM, snc.FOM)
	}
	if quad.MCDRAMBytes == 0 {
		t.Fatal("quadrant Linux did not use MCDRAM")
	}
}

func TestSimulateNode(t *testing.T) {
	cfg := NodeSimConfig{
		Ranks:              8,
		Steps:              10,
		ComputePerStepSecs: 1e-3,
		SyscallsPerStep:    2,
		SyscallServiceSecs: 2e-6,
		Seed:               1,
	}
	mck, err := SimulateNode(McKernel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mck.OffloadsServiced != 8*10*2 {
		t.Fatalf("offloads %d", mck.OffloadsServiced)
	}
	lin, err := SimulateNode(Linux, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lin.OffloadsServiced != 0 {
		t.Fatal("Linux offloaded")
	}
	if mck.ElapsedSeconds <= 0 || mck.AnalyticSeconds <= 0 {
		t.Fatal("timings")
	}
	if _, err := SimulateNode(Kernel("bad"), cfg); err == nil {
		t.Fatal("bad kernel accepted")
	}
}

// TestMeasureUtilization checks MeasureNoise's FTQ view: utilisation in
// (0, 1], the worst window no better than the mean, McKernel above Linux.
func TestMeasureUtilization(t *testing.T) {
	samples := MeasureNoise(1, 2000)
	if len(samples) != 3 {
		t.Fatal("sample count")
	}
	for _, s := range samples {
		if s.MeanUtilization <= 0 || s.MeanUtilization > 1 {
			t.Fatalf("%s utilisation %v", s.Kernel, s.MeanUtilization)
		}
		if s.WorstWindow > s.MeanUtilization {
			t.Fatal("worst window above mean")
		}
	}
	if samples[1].MeanUtilization <= samples[0].MeanUtilization {
		t.Fatal("LWK should utilise more than Linux")
	}
}

func TestTraceOption(t *testing.T) {
	r, err := Run("lulesh2.0", Linux, 8, 1, &Options{Observe: Observe{Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.StepTrace) != 40 {
		t.Fatalf("%d step traces", len(r.StepTrace))
	}
	if r.StepTrace[0].Heap <= 0 {
		t.Fatal("Linux Lulesh step should show heap time")
	}
	plain, _ := Run("lulesh2.0", Linux, 8, 1, nil)
	if plain.StepTrace != nil {
		t.Fatal("untraced run has a trace")
	}
}

func TestNoiseSamplesAndHistogram(t *testing.T) {
	for _, s := range MeasureNoise(1, 2000) {
		if len(s.Samples) != 2000 {
			t.Fatalf("%s: %d samples", s.Kernel, len(s.Samples))
		}
		if out := stats.NewHistogram(s.Samples, 8).Render("us"); !strings.Contains(out, "#") {
			t.Fatalf("%s histogram render:\n%s", s.Kernel, out)
		}
	}
}

// TestNoiseSectionsDescribeOneRun ties every section mknoise prints to the
// FWQ row of the same kernel: the per-source seconds sum to the samples'
// total detour, the histogram counts exactly the stretched iterations, and
// the table's max stretch is the largest sample's.
func TestNoiseSectionsDescribeOneRun(t *testing.T) {
	const quantumUs = 1000.0
	for _, s := range MeasureNoise(1, 10000) {
		var detourUs, maxUs float64
		var stretched int64
		for _, us := range s.Samples {
			detourUs += us - quantumUs
			maxUs = max(maxUs, us)
			if us > quantumUs {
				stretched++
			}
		}
		var stolen float64
		for _, sec := range s.Sources {
			stolen += sec
		}
		if math.Abs(stolen-detourUs*1e-6) > 1e-9 {
			t.Errorf("%s: sources steal %.9fs, samples detour %.9fs", s.Kernel, stolen, detourUs*1e-6)
		}
		if s.Detours != stretched {
			t.Errorf("%s: %d detours in the histogram, %d stretched iterations", s.Kernel, s.Detours, stretched)
		}
		if want := (maxUs - quantumUs) / quantumUs * 100; math.Abs(s.MaxStretchPercent-want) > 1e-9 {
			t.Errorf("%s: max stretch %.6f%%, largest sample stretches %.6f%%", s.Kernel, s.MaxStretchPercent, want)
		}
	}
}

package kernel

import (
	"fmt"
	"slices"
	"testing"

	"mklite/internal/hw"
	"mklite/internal/mem"
	"mklite/internal/sched"
	"mklite/internal/sim"
)

func TestSysnoInventory(t *testing.T) {
	all := All()
	if len(all) != NumSyscalls {
		t.Fatalf("All() returned %d, want %d", len(all), NumSyscalls)
	}
	if NumSyscalls < 120 {
		t.Fatalf("inventory only %d syscalls; expected a broad ABI surface", NumSyscalls)
	}
	for i, n := range all {
		if int(n) != i || !n.Valid() {
			t.Fatalf("inventory broken at %d", i)
		}
	}
	if Sysno(-1).Valid() || Sysno(NumSyscalls).Valid() {
		t.Fatal("out-of-range sysno validated")
	}
}

func TestSysnoStrings(t *testing.T) {
	if SysBrk.String() != "brk" || SysMovePages.String() != "move_pages" {
		t.Fatal("named syscalls")
	}
	if Sysno(-5).String() != "sys_-5?" {
		t.Fatalf("invalid sysno string: %q", Sysno(-5).String())
	}
	for _, n := range All() {
		want, ok := sysnoNames[n]
		if !ok {
			want = fmt.Sprintf("sys_%d", int(n))
		}
		if got := n.String(); got != want {
			t.Errorf("Sysno(%d).String() = %q, want %q", int(n), got, want)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := map[Sysno]Class{
		SysFork:          ClassProcess,
		SysSchedYield:    ClassSched,
		SysClockGettime:  ClassTime,
		SysRtSigaction:   ClassSignal,
		SysBrk:           ClassMemory,
		SysMovePages:     ClassMemory,
		SysFutex:         ClassThread,
		SysOpen:          ClassFile,
		SysSocket:        ClassNet,
		SysUname:         ClassInfo,
		SysPerfEventOpen: ClassInfo,
	}
	for n, want := range cases {
		if got := ClassOf(n); got != want {
			t.Fatalf("ClassOf(%v) = %v, want %v", n, got, want)
		}
	}
}

func TestEverySyscallHasClass(t *testing.T) {
	for _, n := range All() {
		c := ClassOf(n)
		if c < ClassProcess || c > ClassInfo {
			t.Fatalf("syscall %v has bad class %v", n, c)
		}
	}
}

func TestTableDefaultAndOverride(t *testing.T) {
	tb := NewTable(Offloaded)
	tb.Set(SysBrk, Native)
	if tb.Get(SysBrk) != Native {
		t.Fatal("override lost")
	}
	if tb.Get(SysOpen) != Offloaded {
		t.Fatal("default lost")
	}
}

// TestTableOutsideInventory: a number outside the inventory has the
// table's default, and setting one changes nothing.
func TestTableOutsideInventory(t *testing.T) {
	tb := NewTable(Offloaded)
	for _, n := range []Sysno{-1, numSysno, numSysno + 40} {
		tb.Set(n, Unsupported)
		tb.SetAll([]Sysno{n}, Native)
		if got := tb.Get(n); got != Offloaded {
			t.Errorf("Get(%d) = %v, want the default", int(n), got)
		}
	}
	if c := tb.Count(Offloaded); c != NumSyscalls {
		t.Fatalf("out-of-inventory sets leaked: %d of %d offloaded", c, NumSyscalls)
	}
}

func TestTableSetClass(t *testing.T) {
	tb := NewTable(Offloaded)
	tb.SetClass(ClassMemory, Native)
	if tb.Get(SysMmap) != Native || tb.Get(SysMbind) != Native {
		t.Fatal("SetClass(memory) incomplete")
	}
	if tb.Get(SysOpen) != Offloaded {
		t.Fatal("SetClass leaked outside class")
	}
}

func TestTableCount(t *testing.T) {
	tb := NewTable(Native)
	tb.SetAll([]Sysno{SysOpen, SysClose}, Unsupported)
	if c := tb.Count(Unsupported); c != 2 {
		t.Fatalf("Count = %d", c)
	}
	if c := tb.Count(Native); c != NumSyscalls-2 {
		t.Fatalf("native count = %d", c)
	}
}

func TestDispositionStrings(t *testing.T) {
	if Native.String() != "native" || Offloaded.String() != "offloaded" || Unsupported.String() != "unsupported" {
		t.Fatal("disposition strings")
	}
}

func TestCapSet(t *testing.T) {
	s := CapSet{}.With(CapFullFork, CapMovePages)
	if !s.Has(CapFullFork) || !s.Has(CapMovePages) || s.Has(CapPtraceFull) {
		t.Fatal("With/Has broken")
	}
	if s2 := s.With(CapPtraceFull); !s2.Has(CapPtraceFull) || s.Has(CapPtraceFull) {
		t.Fatal("With must not mutate the original")
	}
}

func TestCostsSyscallTime(t *testing.T) {
	c := McKernelCosts()
	if c.SyscallTime(Native) != c.Trap {
		t.Fatal("native time")
	}
	if c.SyscallTime(Offloaded) != c.Trap+c.OffloadRTT {
		t.Fatal("offload time")
	}
	if c.SyscallTime(Unsupported) != c.Trap {
		t.Fatal("unsupported time")
	}
}

func TestCostRelationships(t *testing.T) {
	lin, mck, mos := LinuxCosts(), McKernelCosts(), MOSCosts()
	if !(mck.Trap < lin.Trap) {
		t.Fatal("LWK trap should be cheaper than Linux")
	}
	// mOS offload (thread migration) is cheaper than McKernel's proxy
	// round trip — section II-C.
	if !(mos.OffloadRTT < mck.OffloadRTT) {
		t.Fatal("mOS offload should undercut McKernel proxy")
	}
	if lin.TickOverhead == 0 || mck.TickOverhead != 0 || mos.TickOverhead != 0 {
		t.Fatal("tick configuration wrong")
	}
}

func TestWorkTime(t *testing.T) {
	c := LinuxCosts()
	w := mem.Work{Faults: 10, PagesMapped: 10, ZeroedBytes: 8 << 30}
	d := c.WorkTime(w)
	want := 10*c.FaultBase + 10*c.PTESetup + sim.Second // 8 GiB at 8 GiB/s
	if d < want-sim.Millisecond || d > want+sim.Millisecond {
		t.Fatalf("WorkTime = %v, want ~%v", d, want)
	}
	if c.WorkTime(mem.Work{}) != 0 {
		t.Fatal("empty work should be free")
	}
}

func TestDefaultPartition(t *testing.T) {
	node := hw.KNL7250SNC4()
	p, err := DefaultPartition(node, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.OSCores) != 4 || len(p.AppCores) != 64 {
		t.Fatalf("partition %d/%d", len(p.OSCores), len(p.AppCores))
	}
	// The two sides are a disjoint cover of the node's cores, OS first.
	for i, c := range append(slices.Clone(p.OSCores), p.AppCores...) {
		if c != i {
			t.Fatalf("core %d at position %d: not a disjoint cover of 0..67, OS first", c, i)
		}
	}
}

func TestDefaultPartitionErrors(t *testing.T) {
	node := hw.KNL7250SNC4()
	if _, err := DefaultPartition(node, 68); err == nil {
		t.Fatal("all-OS partition accepted")
	}
	if _, err := DefaultPartition(node, -1); err == nil {
		t.Fatal("negative OS cores accepted")
	}
}

func TestNearestOSCore(t *testing.T) {
	node := hw.KNL7250SNC4()
	p, _ := DefaultPartition(node, 4)
	// All OS cores are in quadrant 0 (cores 0-3); any app core maps to
	// one of them.
	c, err := p.NearestOSCore(40)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0 || c > 3 {
		t.Fatalf("nearest OS core = %d", c)
	}
	empty := Partition{Node: node}
	if _, err := empty.NearestOSCore(10); err == nil {
		t.Fatal("no OS cores: want error")
	}
}

// schedule runs tasks through the batch view of the kernel policy NewPolicy
// builds for kind over costs.
func schedule(t *testing.T, kind sched.Kind, costs Costs, tasks []sim.Duration) sched.Result {
	t.Helper()
	pl, err := NewPolicy(kind, costs)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.NewState(1)
	return st.Schedule(tasks)
}

func TestCooperativeSchedule(t *testing.T) {
	tasks := []sim.Duration{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond}
	res := schedule(t, sched.Coop, McKernelCosts(), tasks)
	if res.Switches != 2 {
		t.Fatalf("switches = %d", res.Switches)
	}
	if res.Completion[0] != 10*sim.Millisecond {
		t.Fatalf("first completion %v", res.Completion[0])
	}
	want := 60*sim.Millisecond + 2*McKernelCosts().ContextSwitch
	if res.Makespan != want {
		t.Fatalf("makespan %v, want %v", res.Makespan, want)
	}
}

func TestTimeSharedSchedule(t *testing.T) {
	tasks := []sim.Duration{20 * sim.Millisecond, 20 * sim.Millisecond}
	res := schedule(t, sched.CFS, LinuxCosts(), tasks)
	if res.Switches < 3 {
		t.Fatalf("time sharing switched only %d times", res.Switches)
	}
	// Makespan exceeds pure work due to switches and tick overhead.
	if res.Makespan <= 40*sim.Millisecond {
		t.Fatalf("makespan %v did not include overhead", res.Makespan)
	}
	if res.Overhead <= 0 {
		t.Fatal("no overhead recorded")
	}
}

func TestScheduleOverheadComparison(t *testing.T) {
	// The design rationale: for batch HPC tasks, cooperative scheduling
	// wastes less time than time sharing.
	tasks := make([]sim.Duration, 8)
	for i := range tasks {
		tasks[i] = 50 * sim.Millisecond
	}
	coop := schedule(t, sched.Coop, McKernelCosts(), tasks)
	ts := schedule(t, sched.CFS, LinuxCosts(), tasks)
	if coop.Makespan >= ts.Makespan {
		t.Fatalf("cooperative %v not faster than time-shared %v", coop.Makespan, ts.Makespan)
	}
}

func TestScheduleEmpty(t *testing.T) {
	res := schedule(t, sched.Coop, McKernelCosts(), nil)
	if res.Makespan != 0 || len(res.Completion) != 0 {
		t.Fatal("empty schedule")
	}
}

func TestTimeSharedFairness(t *testing.T) {
	// With equal work and preemption, completions are clustered at the
	// end rather than strictly serial: the shorter first-completion gap
	// distinguishes RR from FCFS.
	p := sched.Params{Quantum: sim.Millisecond, ContextSwitch: LinuxCosts().ContextSwitch}
	res := sched.Run([]sim.Duration{10 * sim.Millisecond, 10 * sim.Millisecond}, sched.CFS, p, 0)
	gap := res.Makespan - res.Completion[0]
	if gap > 5*sim.Millisecond {
		t.Fatalf("completion gap %v too large for RR", gap)
	}
}

// Regression for the historical tick model that stretched only compute
// slices: virtual time spent in context switches is tick-charged too, so a
// ticked run is slower than a tick-free one by exactly its TickTime, and
// that TickTime exceeds a compute-only stretch.
func TestRunScheduleTickChargesSwitchTime(t *testing.T) {
	p := sched.Params{
		Quantum:       10 * sim.Millisecond,
		ContextSwitch: 2 * sim.Millisecond,
		TickPeriod:    4 * sim.Millisecond,
		TickOverhead:  sim.Millisecond,
	}
	tasks := []sim.Duration{25 * sim.Millisecond, 25 * sim.Millisecond}
	res := sched.Run(tasks, sched.CFS, p, 0)
	flat := p
	flat.TickOverhead = 0
	base := sched.Run(tasks, sched.CFS, flat, 0)
	if res.TickTime <= 0 {
		t.Fatal("no tick charged")
	}
	if res.Makespan != base.Makespan+res.TickTime {
		t.Fatalf("makespan %v != tick-free %v + tick %v", res.Makespan, base.Makespan, res.TickTime)
	}
	rate := float64(p.TickOverhead) / float64(p.TickPeriod)
	if computeOnly := (tasks[0] + tasks[1]).Scale(rate); res.TickTime <= computeOnly {
		t.Fatalf("tick %v exempts switch time (compute-only stretch %v)", res.TickTime, computeOnly)
	}
}

// Linux's time-sharing policy decomposes its overhead into switches and
// tick time exactly.
func TestRunScheduleDecomposition(t *testing.T) {
	res := schedule(t, sched.CFS, LinuxCosts(), []sim.Duration{25 * sim.Millisecond, 10 * sim.Millisecond, 7 * sim.Millisecond})
	if res.TickTime <= 0 || res.Switches == 0 {
		t.Fatalf("degenerate schedule: %+v", res)
	}
	if want := sim.Duration(res.Switches)*LinuxCosts().ContextSwitch + res.TickTime; res.Overhead != want {
		t.Fatalf("Overhead %v != Switches·ContextSwitch + tick = %v", res.Overhead, want)
	}
}

// A lone task under Linux's time-sharing policy never switches; it pays
// only the tick.
func TestRunScheduleSingleTaskPreemptive(t *testing.T) {
	task := 25 * sim.Millisecond
	res := schedule(t, sched.CFS, LinuxCosts(), []sim.Duration{task})
	if res.Switches != 0 {
		t.Fatalf("solo task switched %d times", res.Switches)
	}
	if res.Overhead != res.TickTime {
		t.Fatalf("solo overhead %v is not pure tick %v", res.Overhead, res.TickTime)
	}
	if res.Makespan != task+res.TickTime {
		t.Fatalf("solo makespan %v, want %v", res.Makespan, task+res.TickTime)
	}
}

func TestRunScheduleDegenerateTimeslices(t *testing.T) {
	tasks := []sim.Duration{10 * sim.Millisecond, 20 * sim.Millisecond}
	for _, slice := range []sim.Duration{0, -5 * sim.Millisecond} {
		p := sched.Params{Quantum: slice, ContextSwitch: sim.Microsecond}
		res := sched.Run(tasks, sched.CFS, p, 0)
		// A non-positive quantum degrades to run-to-completion slices.
		if res.Switches != 1 {
			t.Fatalf("timeslice %v: %d switches", slice, res.Switches)
		}
		if want := 30*sim.Millisecond + p.ContextSwitch; res.Makespan != want {
			t.Fatalf("timeslice %v: makespan %v, want %v", slice, res.Makespan, want)
		}
	}
	if res := schedule(t, sched.CFS, LinuxCosts(), nil); res.Makespan != 0 || len(res.Completion) != 0 {
		t.Fatal("empty preemptive schedule")
	}
}

func TestBaseKernelPlumbing(t *testing.T) {
	node := hw.KNL7250SNC4()
	part, _ := DefaultPartition(node, 4)
	b := &Base{
		KName:  "test",
		KType:  TypeMcKernel,
		KCaps:  CapSet{}.With(CapFullFork),
		KTable: NewTable(Offloaded).Set(SysBrk, Native),
		KCosts: McKernelCosts(),
		KPart:  part,
		KPhys:  mem.NewPhys(node),
	}
	if b.Name() != "test" || b.Type() != TypeMcKernel {
		t.Fatal("base getters")
	}
	if b.SyscallTime(SysBrk) != b.Costs().Trap {
		t.Fatal("native syscall time")
	}
	if b.SyscallTime(SysOpen) != b.Costs().Trap+b.Costs().OffloadRTT {
		t.Fatal("offloaded syscall time")
	}
	if !b.Caps().Has(CapFullFork) {
		t.Fatal("caps")
	}
	if b.Phys() == nil || b.Partition().Node != node {
		t.Fatal("phys/partition")
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeLinux.String() != "Linux" || TypeMcKernel.String() != "McKernel" || TypeMOS.String() != "mOS" {
		t.Fatal("type strings")
	}
	if Type(9).String() != "unknown" {
		t.Fatal("unknown type string")
	}
}

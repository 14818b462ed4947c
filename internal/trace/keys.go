package trace

// Key is an interned counter name: a dense index into a fixed table of the
// counter names the simulation's hot paths emit. Sink.CountKey /
// Sink.CountMaxKey resolve a Key with one array index instead of hashing a
// string per emission — the difference between the string-map counting path
// (+25% on the quick Figure 4 sweep) and the ≤5% counters budget that
// BenchmarkCountersOverhead enforces. Dynamic names (per-noise-source attribution, rare syscalls) keep
// using the string API; Counters.Add routes a string that happens to name a
// Key to the dense slot, so both APIs always agree on the same counter.
type Key int32

// The interned counter keys, one per hot emission site. The String values —
// keyNames below — are the exact dotted names the map-keyed API used, so
// exports, golden tests and mkobs diff see identical bytes.
const (
	KeyHeapQueries Key = iota
	KeyHeapGrows
	KeyHeapGrownBytes
	KeyHeapPeakBytes
	KeyHeapShrinks
	KeyHeapShrunkBytes
	KeyHeapFaults
	KeyHeapZeroedBytes

	KeyMemBytesMCDRAM
	KeyMemBytesDDR4
	KeyMemSpillDDR4Bytes
	KeyMemVMAMap
	KeyMemVMAUnmap
	KeyMemVMADemandFallback
	KeyMemFault4K
	KeyMemFault2M
	KeyMemFault1G

	KeySyscallBrk
	KeySyscallIoctl
	KeySyscallSchedYield
	KeySyscallEnosys

	KeyFabricMessages
	KeyFabricDevSyscalls

	KeyOffloadCalls
	KeyOffloadRTTNs

	KeyMPICollectives
	KeyMPIHaloExchanges

	KeyNoiseCollectiveMaxNs
	KeyNoiseHaloMaxNs
	KeyNoiseDetourNs
	KeyNoiseDetouredIters

	KeyNodesimNoiseNs
	KeyNodesimMaxOffloadLatencyNs

	KeyIHKOffloads
	KeyIHKRTTNs
	KeyIHKServiced

	KeyFaultStragglerNs
	KeyFaultOffloadStalls
	KeyFaultOffloadStallNs
	KeyFaultLinkRetransmits
	KeyFaultLinkDelayNs
	KeyFaultStormOffloadNs
	KeyFaultNodeFailures
	KeyFaultRetries
	KeyFaultRecoveryNs
	KeyFaultDegradedNodes

	KeySchedSwitches
	KeySchedTicks
	KeySchedQuantumAdjust
	KeySchedGangSlackNs

	numKeys // sentinel: the dense-slice length
)

// keyNames maps each Key to its canonical dotted name. Order must match the
// constant block above; TestKeyNamesComplete enforces the pairing.
var keyNames = [numKeys]string{
	KeyHeapQueries:     "heap.queries",
	KeyHeapGrows:       "heap.grows",
	KeyHeapGrownBytes:  "heap.grown_bytes",
	KeyHeapPeakBytes:   "heap.peak_bytes",
	KeyHeapShrinks:     "heap.shrinks",
	KeyHeapShrunkBytes: "heap.shrunk_bytes",
	KeyHeapFaults:      "heap.faults",
	KeyHeapZeroedBytes: "heap.zeroed_bytes",

	KeyMemBytesMCDRAM:       "mem.bytes.mcdram",
	KeyMemBytesDDR4:         "mem.bytes.ddr4",
	KeyMemSpillDDR4Bytes:    "mem.spill_ddr4_bytes",
	KeyMemVMAMap:            "mem.vma.map",
	KeyMemVMAUnmap:          "mem.vma.unmap",
	KeyMemVMADemandFallback: "mem.vma.demand_fallback",
	KeyMemFault4K:           "mem.fault.4KiB",
	KeyMemFault2M:           "mem.fault.2MiB",
	KeyMemFault1G:           "mem.fault.1GiB",

	KeySyscallBrk:        "syscall.brk",
	KeySyscallIoctl:      "syscall.ioctl",
	KeySyscallSchedYield: "syscall.sched_yield",
	KeySyscallEnosys:     "syscall.enosys",

	KeyFabricMessages:    "fabric.messages",
	KeyFabricDevSyscalls: "fabric.dev_syscalls",

	KeyOffloadCalls: "offload.calls",
	KeyOffloadRTTNs: "offload.rtt_ns",

	KeyMPICollectives:   "mpi.collectives",
	KeyMPIHaloExchanges: "mpi.halo_exchanges",

	KeyNoiseCollectiveMaxNs: "noise.collective_max_ns",
	KeyNoiseHaloMaxNs:       "noise.halo_max_ns",
	KeyNoiseDetourNs:        "noise.detour_ns",
	KeyNoiseDetouredIters:   "noise.detoured_iters",

	KeyNodesimNoiseNs:             "nodesim.noise_ns",
	KeyNodesimMaxOffloadLatencyNs: "nodesim.max_offload_latency_ns",

	KeyIHKOffloads: "ihk.offloads",
	KeyIHKRTTNs:    "ihk.rtt_ns",
	KeyIHKServiced: "ihk.serviced",

	KeyFaultStragglerNs:     "fault.straggler_ns",
	KeyFaultOffloadStalls:   "fault.offload.stalls",
	KeyFaultOffloadStallNs:  "fault.offload.stall_ns",
	KeyFaultLinkRetransmits: "fault.link.retransmits",
	KeyFaultLinkDelayNs:     "fault.link.delay_ns",
	KeyFaultStormOffloadNs:  "fault.storm.offload_ns",
	KeyFaultNodeFailures:    "fault.node_failures",
	KeyFaultRetries:         "fault.retries",
	KeyFaultRecoveryNs:      "fault.recovery_ns",
	KeyFaultDegradedNodes:   "fault.degraded_nodes",

	KeySchedSwitches:      "sched.switches",
	KeySchedTicks:         "sched.ticks",
	KeySchedQuantumAdjust: "sched.quantum_adjust",
	KeySchedGangSlackNs:   "sched.gang_slack_ns",
}

// keyByName is the reverse index, built once at package init. It is
// immutable after init, so reading it from many runs concurrently is safe.
var keyByName = func() map[string]Key {
	m := make(map[string]Key, numKeys)
	for k, name := range keyNames {
		if name == "" {
			panic("trace: Key without a name — keyNames out of sync with the Key constants")
		}
		m[name] = Key(k)
	}
	return m
}()

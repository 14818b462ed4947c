// Heap-optimisation example: the paper's Table I and section IV brk study.
// LULESH 2.0 calls brk() thousands of times per run — 5:2:1
// query:grow:shrink, a peak heap of tens of megabytes but *gigabytes* of
// cumulative growth. The Linux heap turns that churn into demand faults and
// full-page clears every timestep; the LWK HPC heap grows in pre-zeroed
// 2 MiB chunks, never returns memory, and never faults.
//
//	go run ./examples/heapoptim
package main

import (
	"fmt"
	"log"

	"mklite"
)

func main() {
	fmt.Println("LULESH 2.0, single node, all memory pinned to DDR4 (Table I setup)")
	fmt.Println()

	off := false
	configs := []struct {
		name string
		k    mklite.Kernel
		opts *mklite.Options
	}{
		{"Linux", mklite.Linux, &mklite.Options{ForceDDROnly: true}},
		{"mOS, heap management disabled", mklite.MOS, &mklite.Options{ForceDDROnly: true, HPCHeap: &off}},
		{"mOS, regular heap management", mklite.MOS, &mklite.Options{ForceDDROnly: true}},
	}
	var linux float64
	fmt.Printf("%-31s %12s %9s %12s\n", "configuration", "zones/s", "relative", "heap faults")
	for i, c := range configs {
		r, err := mklite.Run("lulesh2.0", c.k, 1, 1, c.opts)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			linux = r.FOM
		}
		fmt.Printf("%-31s %12.5g %8.1f%% %12d\n", c.name, r.FOM, r.FOM/linux*100, r.HeapFaults)
	}
	fmt.Println("\n(paper: 100.0% / 106.6% / 121.0%)")

	// The brk trace itself, as logged in section IV: rank 0's heap
	// accounting of one default run per kernel.
	fmt.Println("\nPer-rank brk trace over the run (paper -s30: 7,526/3,028/1,499; 87 MB peak, 22 GB cumulative):")
	for _, k := range mklite.Kernels() {
		r, err := mklite.Run("lulesh2.0", k, 1, 1, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %4d queries %4d grows %4d shrinks; peak %.1f MiB; cumulative %.2f GiB; %d faults\n",
			r.Kernel, r.HeapQueries, r.HeapGrows, r.HeapShrinks,
			float64(r.HeapPeakBytes)/(1<<20), float64(r.HeapGrownBytes)/(1<<30), r.HeapFaults)
	}
	fmt.Println("\nNote the asymmetry: identical call trace, wildly different kernel work.")
	fmt.Println("Growing 2 MiB at a time and retaining shrunk memory is exactly what a")
	fmt.Println("general-purpose kernel cannot afford to do — and what an LWK can.")
}

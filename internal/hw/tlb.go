package hw

// TLBSpec models the translation lookaside buffer's reach per page size.
// The paper attributes part of the LWK advantage to "aggressive" large-page
// use; this model turns page-size choices made by the memory managers into a
// throughput factor, which is how that advantage reaches the workload
// models.
type TLBSpec struct {
	Entries4K int
	Entries2M int
	Entries1G int
	// MissCostNs is the average page-walk cost of a TLB miss in
	// nanoseconds.
	MissCostNs float64
	// AccessesPerByte approximates how many distinct memory accesses a
	// streaming workload issues per byte of working set traversal; with
	// 64-byte cache lines this is 1/64.
	AccessesPerByte float64
}

// Reach returns the bytes of address space the TLB covers for the given
// page size.
func (t TLBSpec) Reach(p PageSize) int64 {
	switch p {
	case Page4K:
		return int64(t.Entries4K) * int64(p)
	case Page2M:
		return int64(t.Entries2M) * int64(p)
	case Page1G:
		return int64(t.Entries1G) * int64(p)
	default:
		return 0
	}
}

// MissRate estimates the per-access TLB miss probability for a streaming
// traversal of workingSet bytes mapped with the given page size.
//
// The model: while the working set fits in TLB reach, misses are negligible
// (cold misses amortised). Beyond reach, each traversed page not resident
// costs a miss, i.e. one miss per page per pass scaled by the fraction of
// the set outside reach. This captures the qualitative cliff the paper's
// large-page discussion relies on without pretending to cycle accuracy.
func (t TLBSpec) MissRate(workingSet int64, p PageSize) float64 {
	if workingSet <= 0 || !p.Valid() {
		return 0
	}
	reach := t.Reach(p)
	if workingSet <= reach {
		return 0
	}
	// Fraction of accesses falling outside the resident reach.
	outside := float64(workingSet-reach) / float64(workingSet)
	// One miss per page of outside data per traversal; accesses per page
	// = pageSize * AccessesPerByte.
	accessesPerPage := float64(p) * t.AccessesPerByte
	if accessesPerPage < 1 {
		accessesPerPage = 1
	}
	return outside / accessesPerPage
}

// WalkOverhead returns the expected extra nanoseconds per memory access due
// to TLB misses for the given traversal.
func (t TLBSpec) WalkOverhead(workingSet int64, p PageSize) float64 {
	return t.MissRate(workingSet, p) * t.MissCostNs
}

// EffectiveBandwidth derates a device's stream bandwidth for TLB effects on
// a working set mapped with a mix of page sizes. frac[i] is the fraction of
// the working set mapped with PageSizes[i] (fractions should sum to ~1).
//
// The derating compares the ideal per-access cost (line transfer at stream
// bandwidth) with the cost including page-walk overhead.
func (t TLBSpec) EffectiveBandwidth(dev MemDeviceSpec, workingSet int64, frac [len(PageSizes)]float64) float64 {
	if workingSet <= 0 {
		return dev.StreamBandwidth
	}
	const lineBytes = 64.0
	idealNsPerLine := lineBytes / (dev.StreamBandwidth * float64(GiB)) * 1e9
	total := 0.0
	weight := 0.0
	// Ascending page-size order: the float accumulation below is fixed
	// by the array layout, so the derated bandwidth never varies.
	for i, p := range PageSizes {
		f := frac[i]
		if f <= 0 {
			continue
		}
		// The portion mapped with page size p behaves as a traversal
		// of that portion alone.
		part := int64(float64(workingSet) * f)
		over := t.WalkOverhead(part, p)
		total += f * (idealNsPerLine + over)
		weight += f
	}
	if weight == 0 {
		return dev.StreamBandwidth
	}
	avgNsPerLine := total / weight
	return dev.StreamBandwidth * idealNsPerLine / avgNsPerLine
}

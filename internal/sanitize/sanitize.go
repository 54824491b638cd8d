// Package sanitize implements the paper's §3 data sanitation: snapshot
// series are inspected for "valleys" — days where the number of
// members and/or prefixes drops at least 30% below the previous day
// and returns to previous values on subsequent days — which indicate a
// failure at the IXP or in the collection, not real routing change.
// Valley snapshots are removed from the dataset (the paper dropped
// 13.5% of its snapshots this way).
package sanitize

import (
	"ixplight/internal/analysis"
	"ixplight/internal/collector"
)

// The paper's valley parameters.
const (
	// dropThreshold is the relative fall that flags a valley, the
	// paper's "dropped at least 30%".
	dropThreshold = 0.30
	// recoveryTolerance is how close to the pre-valley level the series
	// must return for the dip to count as a transient valley rather
	// than a genuine decline.
	recoveryTolerance = 0.15
	// recoveryWindow is how many subsequent snapshots may pass before
	// recovery.
	recoveryWindow = 3
)

// seriesCounts extracts the member and prefix series the detector
// inspects (both families combined; a collection failure hits both).
// Counting per family through analysis.CountSnapshot is exact —
// address family partitions the prefix set — and lets a pinned or
// cached index answer without walking routes, so the detector also
// works on the header-only snapshots column-direct loading produces.
func seriesCounts(s *collector.Snapshot) (members, prefixes int) {
	p := analysis.CountSnapshot(s, false).Prefixes + analysis.CountSnapshot(s, true).Prefixes
	return len(s.Members), p
}

// DetectValleys returns the indices of valley snapshots in the series.
func DetectValleys(snaps []*collector.Snapshot) []int {
	n := len(snaps)
	members := make([]int, n)
	prefixes := make([]int, n)
	for i, s := range snaps {
		members[i], prefixes[i] = seriesCounts(s)
	}
	var valleys []int
	for i := 1; i < n; i++ {
		if isValley(members, i) || isValley(prefixes, i) {
			valleys = append(valleys, i)
		}
	}
	return valleys
}

// isValley reports whether series[i] dropped ≥ threshold below
// series[i-1] and recovered within the window.
func isValley(series []int, i int) bool {
	prev := series[i-1]
	if prev == 0 {
		return false
	}
	drop := 1 - float64(series[i])/float64(prev)
	if drop < dropThreshold {
		return false
	}
	// Recovery: some snapshot within the window returns near (or
	// above) the pre-valley level.
	floor := float64(prev) * (1 - recoveryTolerance)
	for j := i + 1; j <= i+recoveryWindow && j < len(series); j++ {
		if float64(series[j]) >= floor {
			return true
		}
	}
	return false
}

// Clean removes valley snapshots and returns the surviving series plus
// the number removed.
func Clean(snaps []*collector.Snapshot) (kept []*collector.Snapshot, removed int) {
	valleys := DetectValleys(snaps)
	bad := make(map[int]bool, len(valleys))
	for _, i := range valleys {
		bad[i] = true
	}
	kept = make([]*collector.Snapshot, 0, len(snaps))
	for i, s := range snaps {
		if bad[i] {
			removed++
			continue
		}
		kept = append(kept, s)
	}
	return kept, removed
}

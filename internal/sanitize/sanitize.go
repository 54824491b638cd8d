// Package sanitize implements the paper's §3 data sanitation: snapshot
// series are inspected for "valleys" — days where the number of
// members and/or prefixes drops at least 30% below the previous day
// and returns to previous values on subsequent days — which indicate a
// failure at the IXP or in the collection, not real routing change.
// Valley snapshots are removed from the dataset (the paper dropped
// 13.5% of its snapshots this way).
package sanitize

import "ixplight/internal/analysis"

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

// DetectValleys returns the indices of valley days in the series. It
// inspects the route server's member count and the distinct prefixes of
// both families combined: a collection failure hits both.
func DetectValleys(days []analysis.DayCounts) []int {
	n := len(days)
	members := make([]int, n)
	prefixes := make([]int, n)
	for i := range days {
		members[i], prefixes[i] = days[i].Members, days[i].V4.Prefixes+days[i].V6.Prefixes
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

// Clean removes valley days and returns the surviving series plus the
// number removed.
func Clean(days []analysis.DayCounts) (kept []analysis.DayCounts, removed int) {
	kept = Without(days, DetectValleys(days))
	return kept, len(days) - len(kept)
}

// Without returns the days of a series but those at the ascending
// indices drop (DetectValleys' result); an index past its end drops
// nothing, so a window cut from the front of a series takes the
// series' valleys as they are.
func Without(days []analysis.DayCounts, drop []int) []analysis.DayCounts {
	kept := make([]analysis.DayCounts, 0, len(days))
	for i := range days {
		if len(drop) > 0 && drop[0] == i {
			drop = drop[1:]
			continue
		}
		kept = append(kept, days[i])
	}
	return kept
}

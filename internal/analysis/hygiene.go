package analysis

// The §5.6 operational-implications analysis: DE-CIX mitigates the
// route-server overhead of blanket tagging by filtering routes with
// "too many communities". This what-if quantifies such a filter's
// impact on any snapshot: how many routes (and which share of the
// total community load) a given threshold would drop.

// HygieneImpact is the effect of one threshold value.
type HygieneImpact struct {
	// Threshold is the maximum allowed community count per route.
	Threshold int
	// RoutesDropped is how many routes exceed it.
	RoutesDropped int
	// RoutesTotal is the family's route count.
	RoutesTotal int
	// CommunitiesDropped is the community instances removed with them.
	CommunitiesDropped int
	// CommunitiesTotal is the family's instance count.
	CommunitiesTotal int
}

// DropShare is the fraction of routes lost at this threshold.
func (h HygieneImpact) DropShare() float64 { return ratio(h.RoutesDropped, h.RoutesTotal) }

// LoadShare is the fraction of the community load shed.
func (h HygieneImpact) LoadShare() float64 {
	return ratio(h.CommunitiesDropped, h.CommunitiesTotal)
}

// hygieneImpacts evaluates each threshold over a per-route community
// count distribution, given as a histogram (count → routes).
func hygieneImpacts(hist map[int]int, thresholds []int) []HygieneImpact {
	routes, comms := 0, 0
	for c, n := range hist {
		routes += n
		comms += c * n
	}
	out := make([]HygieneImpact, 0, len(thresholds))
	for _, th := range thresholds {
		h := HygieneImpact{Threshold: th, RoutesTotal: routes, CommunitiesTotal: comms}
		for c, n := range hist {
			if c > th {
				h.RoutesDropped += n
				h.CommunitiesDropped += c * n
			}
		}
		out = append(out, h)
	}
	return out
}

package analysis

import (
	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
)

// FlavourActions extends the paper's §5 analyses to the community
// flavours it leaves for future work: per-flavour counts of action and
// informational instances, including the large-community actions that
// can name 32-bit targets and AMS-IX's extended-community prepending.
type FlavourActions struct {
	StandardAction int
	StandardInfo   int
	ExtendedAction int
	ExtendedInfo   int
	LargeAction    int
	LargeInfo      int
	// LargeWideTargets counts large-community actions whose target ASN
	// does not fit in 16 bits — actions that standard communities could
	// not express at all.
	LargeWideTargets int
}

// TotalAction sums the action instances across flavours.
func (f FlavourActions) TotalAction() int {
	return f.StandardAction + f.ExtendedAction + f.LargeAction
}

// VisibilityReport quantifies the paper's core methodological claim
// (§1, footnote 1): action communities are visible at the route
// server's ingress (the looking-glass vantage point) but are scrubbed
// before propagation, so a classic route collector peering like a
// member sees almost none of them.
type VisibilityReport struct {
	// LGActionInstances counts action communities over the ingress
	// (Adj-RIB-In) routes — what the paper's LG crawl sees.
	LGActionInstances int
	// CollectorActionInstances counts action communities over the
	// routes exported towards a collector peer — what RouteViews/RIPE
	// RIS-style collectors see.
	CollectorActionInstances int
	// CollectorRoutes is how many routes the collector receives.
	CollectorRoutes int
}

// VisibilityGap is the fraction of action instances invisible at the
// collector (1.0 = everything scrubbed).
func (v VisibilityReport) VisibilityGap() float64 {
	if v.LGActionInstances == 0 {
		return 0
	}
	return 1 - float64(v.CollectorActionInstances)/float64(v.LGActionInstances)
}

// RouteActionInstances counts the known action instances of one route
// across all three flavours — the unit both views of a VisibilityReport
// are counted in, whoever walks the routes.
func RouteActionInstances(r *bgp.Route, scheme *dictionary.Scheme) int {
	n := 0
	for _, c := range r.Communities {
		if scheme.Classify(c).IsAction() {
			n++
		}
	}
	for _, e := range r.ExtCommunities {
		if scheme.ClassifyExtended(e).IsAction() {
			n++
		}
	}
	for _, l := range r.LargeCommunities {
		if scheme.ClassifyLarge(l).IsAction() {
			n++
		}
	}
	return n
}

// ActionInstances tallies known action instances across all flavours
// of a route list.
func ActionInstances(routes []bgp.Route, scheme *dictionary.Scheme) int {
	n := 0
	for i := range routes {
		n += RouteActionInstances(&routes[i], scheme)
	}
	return n
}

// CompareVisibility builds the report from the LG view (ingress
// routes) and a collector view (the post-action export towards one
// peer).
func CompareVisibility(ingress, exported []bgp.Route, scheme *dictionary.Scheme) VisibilityReport {
	return VisibilityReport{
		LGActionInstances:        ActionInstances(ingress, scheme),
		CollectorActionInstances: ActionInstances(exported, scheme),
		CollectorRoutes:          len(exported),
	}
}

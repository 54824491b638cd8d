package analysis

import "slices"

// Usage aggregates Fig. 4a: how many ASes use action communities, how
// many routes carry at least one, and the total instance count.
type Usage struct {
	// ASesUsing is the number of member ASes with ≥1 action community
	// on ≥1 route; MembersAtRS is the family's member denominator.
	ASesUsing   int
	MembersAtRS int
	// RoutesTagged is the number of routes with ≥1 action community;
	// RoutesTotal the family's route count.
	RoutesTagged int
	RoutesTotal  int
	// ActionInstances is the total action community count (the number
	// atop Fig. 4a's bars).
	ActionInstances int
}

// ASShare and RouteShare are the fractions the paper reports.
func (u Usage) ASShare() float64 { return ratio(u.ASesUsing, u.MembersAtRS) }

// RouteShare is the fraction of routes carrying ≥1 action community.
func (u Usage) RouteShare() float64 { return ratio(u.RoutesTagged, u.RoutesTotal) }

// CDFPoint is one point of Fig. 4b: after including the top
// ASFraction of RS members (by usage), CommFraction of all action
// instances are covered.
type CDFPoint struct {
	ASFraction   float64
	CommFraction float64
}

// ConcentrationCDF computes Fig. 4b: ASes sorted by descending usage,
// cumulative instance share against the fraction of RS members.
func ConcentrationCDF(counts map[uint32]int, membersAtRS int) []CDFPoint {
	if membersAtRS <= 0 {
		return nil
	}
	vals := make([]int, 0, len(counts))
	total := 0
	for _, v := range counts {
		vals = append(vals, v)
		total += v
	}
	slices.Sort(vals)
	slices.Reverse(vals)
	points := make([]CDFPoint, 0, len(vals))
	cum := 0
	for i, v := range vals {
		cum += v
		points = append(points, CDFPoint{
			ASFraction:   float64(i+1) / float64(membersAtRS),
			CommFraction: ratio(cum, total),
		})
	}
	return points
}

// TopShare interpolates a concentration CDF: the fraction of action
// instances covered by the top asFraction of RS members ("1% of the
// ASes account for 50–86%", §5.2).
func TopShare(points []CDFPoint, asFraction float64) float64 {
	best := 0.0
	for _, p := range points {
		if p.ASFraction <= asFraction && p.CommFraction > best {
			best = p.CommFraction
		}
	}
	return best
}

// CorrelationPoint is one AS in Fig. 4c: its share of the IXP's routes
// against its share of the IXP's action communities.
type CorrelationPoint struct {
	ASN       uint32
	RouteFrac float64
	CommFrac  float64
}

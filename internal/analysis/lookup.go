package analysis

import (
	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
)

// Point lookups for the serving layer (internal/ixpd): per-AS and
// per-community reads straight off an Index's aggregate maps. The
// ranking accessors (TopActionCommunities, CulpritRanking, …) answer
// "who are the top K" with one pass over a whole aggregate, keeping K;
// a daemon answering "what about AS X" per request wants the O(1)
// read instead. All lookups are read-only over maps frozen at
// construction, so they follow the Index concurrency contract: safe
// from any number of goroutines.

// ASActivity is one announcing AS's classified activity in one
// address family.
type ASActivity struct {
	// Routes the AS announced into the route server.
	Routes int `json:"routes"`
	// ActionInstances is the number of action communities the AS
	// attached across its routes.
	ActionInstances int `json:"action_instances"`
	// TargetedInstances counts action communities (announced by
	// anyone) targeting this AS.
	TargetedInstances int `json:"targeted_instances"`
	// NonMemberTargeting counts this AS's action instances aimed at
	// ASes that are not members at the route server — its Fig. 7
	// culprit score.
	NonMemberTargeting int `json:"non_member_targeting"`
}

// ASActivity returns the per-AS point lookup for one family. An AS
// absent from the snapshot returns the zero value.
func (ix *Index) ASActivity(asn uint32, v6 bool) ASActivity {
	st := ix.family(v6)
	return ASActivity{
		Routes:             st.perASRoutes[asn],
		ActionInstances:    st.perASActions[asn],
		TargetedInstances:  st.targets[asn],
		NonMemberTargeting: st.culprits[asn],
	}
}

// CommunityUsage is one standard community value's usage in one
// address family.
type CommunityUsage struct {
	// Class is the dictionary classification (JSON-silent: the caller
	// renders it once, not per family).
	Class dictionary.Class `json:"-"`
	// ActionInstances is how many times the value appears as an
	// action community on accepted routes.
	ActionInstances int `json:"action_instances"`
	// NonMemberInstances is how many of those instances target an AS
	// that is not a member at the route server.
	NonMemberInstances int `json:"non_member_instances"`
}

// CommunityUsage returns the per-community point lookup for one
// family. Values never seen in the snapshot classify through the
// scheme and report zero counts.
func (ix *Index) CommunityUsage(c bgp.Community, v6 bool) CommunityUsage {
	st := ix.family(v6)
	return CommunityUsage{
		Class:              ix.Class(c),
		ActionInstances:    st.actionComms[c],
		NonMemberInstances: st.nonMemberComms[c],
	}
}

// Package ixpgen synthesises IXP route-server workloads calibrated to
// the paper's published aggregates. Real member announcements are not
// publicly archivable (the LGs expose only live state), so the
// generator reproduces, per IXP and address family, the marginals the
// paper reports: member/route/prefix counts (Table 1), the
// IXP-defined vs unknown community split (Fig. 1), the
// standard/extended/large mix (Fig. 2), the action vs informational
// ratio (Fig. 3), the share of ASes and routes using action
// communities (Fig. 4a), heavy-tailed per-AS usage (Fig. 4b/4c),
// per-type AS counts (Table 2) and occurrence shares (§5.3), target
// popularity with the paper's named networks on top (Fig. 5/6), and
// the share of action communities targeting ASes absent from the RS
// (§5.5, Fig. 7).
//
// Everything is driven by a seed: the same (profile, seed, scale)
// triple always produces the identical workload.
package ixpgen

import (
	"fmt"
	"strings"

	"ixplight/internal/dictionary"
)

// FamilyParams calibrates one address family of one IXP. All counts
// are at scale 1.0 (the paper's 4 Oct 2021 snapshot); Generate scales
// them down uniformly.
type FamilyParams struct {
	// Table 1 magnitudes.
	MembersAtRS int
	Prefixes    int
	Routes      int

	// Fig. 4a: fraction of RS members using ≥1 action community, and
	// fraction of routes carrying ≥1 action community.
	ActionUserFrac  float64
	TaggedRouteFrac float64

	// Table 2: fraction of RS members using each action type.
	DNAUserFrac     float64
	AOTUserFrac     float64
	PrependUserFrac float64
	BHUserFrac      float64

	// §5.3: shares of action-community occurrences per type. The
	// blackhole share is emergent (one instance per blackhole route),
	// so only the DNA/AOT split is calibrated here (prepend gets the
	// remainder's tail).
	DNAOccShare float64
	AOTOccShare float64

	// Community-volume chain: Fig. 4a/5 count divided by routes.
	ActionPerRoute float64
	// Fig. 1: IXP-defined share of all community instances.
	DefinedShare float64
	// Fig. 2: standard share of the IXP-defined instances.
	StandardShare float64
	// Fig. 3: action share of the IXP-defined standard instances.
	ActionShare float64

	// §5.5: share of action instances whose target has no RS session.
	NonMemberTargetShare float64
}

// InfoPerRoute derives the average informational instances per route
// from the Fig. 3 ratio.
func (f FamilyParams) InfoPerRoute() float64 {
	if f.ActionShare <= 0 {
		return 0
	}
	return f.ActionPerRoute * (1 - f.ActionShare) / f.ActionShare
}

// ExtLargePerRoute derives the average extended+large instances per
// route from the Fig. 2 ratio.
func (f FamilyParams) ExtLargePerRoute() float64 {
	if f.StandardShare <= 0 {
		return 0
	}
	stdDefined := f.ActionPerRoute + f.InfoPerRoute()
	return stdDefined * (1 - f.StandardShare) / f.StandardShare
}

// UnknownPerRoute derives the average unknown (member-private)
// instances per route from the Fig. 1 ratio.
func (f FamilyParams) UnknownPerRoute() float64 {
	if f.DefinedShare <= 0 {
		return 0
	}
	defined := f.ActionPerRoute + f.InfoPerRoute() + f.ExtLargePerRoute()
	return defined * (1 - f.DefinedShare) / f.DefinedShare
}

// Profile is the full calibration of one IXP.
type Profile struct {
	IXP string
	// Location and AvgTraffic reproduce Table 1's descriptive columns.
	Location   string
	AvgTraffic string
	// TotalMembers is the IXP's member count (RS members are fewer).
	TotalMembers int
	Scheme       *dictionary.Scheme
	V4           FamilyParams
	V6           FamilyParams
}

// Profiles returns the calibrated profiles for the eight IXPs in
// Table 1 order. Counts come straight from Table 1; behavioural
// fractions from Fig. 1–4, Table 2, §5.3 and §5.5 (values the paper
// reports only as ranges use a mid-range estimate).
func Profiles() []Profile {
	return []Profile{
		{
			IXP: "IX.br-SP", Location: "São Paulo, Brazil", AvgTraffic: "9.6 Tbps",
			TotalMembers: 2338, Scheme: dictionary.ProfileByName("IX.br-SP"),
			V4: FamilyParams{
				MembersAtRS: 1803, Prefixes: 163981, Routes: 282697,
				ActionUserFrac: 0.519, TaggedRouteFrac: 0.737,
				DNAUserFrac: 0.483, AOTUserFrac: 0.061, PrependUserFrac: 0.057, BHUserFrac: 0,
				DNAOccShare: 0.72, AOTOccShare: 0.26,
				ActionPerRoute: 10.54, DefinedShare: 0.833, StandardShare: 0.849, ActionShare: 0.705,
				NonMemberTargetShare: 0.318,
			},
			V6: FamilyParams{
				MembersAtRS: 1627, Prefixes: 60203, Routes: 88652,
				ActionUserFrac: 0.293, TaggedRouteFrac: 0.756,
				DNAUserFrac: 0.273, AOTUserFrac: 0.021, PrependUserFrac: 0.029, BHUserFrac: 0,
				DNAOccShare: 0.85, AOTOccShare: 0.148,
				ActionPerRoute: 10.66, DefinedShare: 0.913, StandardShare: 0.849, ActionShare: 0.705,
				NonMemberTargetShare: 0.403,
			},
		},
		{
			IXP: "DE-CIX", Location: "Frankfurt, Germany", AvgTraffic: "9.27 Tbps",
			TotalMembers: 1072, Scheme: dictionary.ProfileByName("DE-CIX"),
			V4: FamilyParams{
				MembersAtRS: 874, Prefixes: 451544, Routes: 888478,
				ActionUserFrac: 0.540, TaggedRouteFrac: 0.617,
				DNAUserFrac: 0.381, AOTUserFrac: 0.244, PrependUserFrac: 0.083, BHUserFrac: 0.157,
				DNAOccShare: 0.80, AOTOccShare: 0.18,
				ActionPerRoute: 9.52, DefinedShare: 0.802, StandardShare: 0.909, ActionShare: 0.704,
				NonMemberTargetShare: 0.495,
			},
			V6: FamilyParams{
				MembersAtRS: 711, Prefixes: 65395, Routes: 130084,
				ActionUserFrac: 0.336, TaggedRouteFrac: 0.487,
				DNAUserFrac: 0.231, AOTUserFrac: 0.157, PrependUserFrac: 0.039, BHUserFrac: 0.014,
				DNAOccShare: 0.80, AOTOccShare: 0.195,
				ActionPerRoute: 7.99, DefinedShare: 0.809, StandardShare: 0.887, ActionShare: 0.665,
				NonMemberTargetShare: 0.404,
			},
		},
		{
			IXP: "LINX", Location: "London, United Kingdom", AvgTraffic: "3.8 Tbps",
			TotalMembers: 847, Scheme: dictionary.ProfileByName("LINX"),
			V4: FamilyParams{
				MembersAtRS: 669, Prefixes: 241084, Routes: 315215,
				ActionUserFrac: 0.404, TaggedRouteFrac: 0.766,
				DNAUserFrac: 0.276, AOTUserFrac: 0.209, PrependUserFrac: 0.015, BHUserFrac: 0,
				DNAOccShare: 0.75, AOTOccShare: 0.248,
				ActionPerRoute: 13.23, DefinedShare: 0.861, StandardShare: 0.850, ActionShare: 0.836,
				NonMemberTargetShare: 0.643,
			},
			V6: FamilyParams{
				MembersAtRS: 508, Prefixes: 62912, Routes: 79690,
				ActionUserFrac: 0.285, TaggedRouteFrac: 0.875,
				DNAUserFrac: 0.169, AOTUserFrac: 0.159, PrependUserFrac: 0.012, BHUserFrac: 0,
				DNAOccShare: 0.90, AOTOccShare: 0.099,
				ActionPerRoute: 11.42, DefinedShare: 0.889, StandardShare: 0.873, ActionShare: 0.858,
				NonMemberTargetShare: 0.526,
			},
		},
		{
			IXP: "AMS-IX", Location: "Amsterdam, Netherlands", AvgTraffic: "7.6 Tbps",
			TotalMembers: 861, Scheme: dictionary.ProfileByName("AMS-IX"),
			V4: FamilyParams{
				MembersAtRS: 636, Prefixes: 252704, Routes: 252704,
				ActionUserFrac: 0.355, TaggedRouteFrac: 0.681,
				DNAUserFrac: 0.283, AOTUserFrac: 0.126, PrependUserFrac: 0, BHUserFrac: 0.014,
				DNAOccShare: 0.82, AOTOccShare: 0.179,
				ActionPerRoute: 15.16, DefinedShare: 0.868, StandardShare: 0.965, ActionShare: 0.834,
				NonMemberTargetShare: 0.543,
			},
			V6: FamilyParams{
				MembersAtRS: 488, Prefixes: 61528, Routes: 61528,
				ActionUserFrac: 0.241, TaggedRouteFrac: 0.751,
				DNAUserFrac: 0.176, AOTUserFrac: 0.096, PrependUserFrac: 0, BHUserFrac: 0.002,
				DNAOccShare: 0.78, AOTOccShare: 0.2195,
				ActionPerRoute: 12.29, DefinedShare: 0.925, StandardShare: 0.997, ActionShare: 0.804,
				NonMemberTargetShare: 0.459,
			},
		},
		{
			IXP: "DE-CIX Mad", Location: "Madrid, Spain", AvgTraffic: "492 Gbps",
			TotalMembers: 214, Scheme: dictionary.ProfileByName("DE-CIX Mad"),
			V4: FamilyParams{
				MembersAtRS: 151, Prefixes: 116237, Routes: 125812,
				ActionUserFrac: 0.46, TaggedRouteFrac: 0.62,
				DNAUserFrac: 0.34, AOTUserFrac: 0.20, PrependUserFrac: 0.07, BHUserFrac: 0.10,
				DNAOccShare: 0.80, AOTOccShare: 0.18,
				ActionPerRoute: 12.0, DefinedShare: 0.81, StandardShare: 0.90, ActionShare: 0.70,
				NonMemberTargetShare: 0.45,
			},
			V6: FamilyParams{
				MembersAtRS: 85, Prefixes: 45321, Routes: 48711,
				ActionUserFrac: 0.30, TaggedRouteFrac: 0.50,
				DNAUserFrac: 0.20, AOTUserFrac: 0.13, PrependUserFrac: 0.03, BHUserFrac: 0.01,
				DNAOccShare: 0.82, AOTOccShare: 0.17,
				ActionPerRoute: 10.0, DefinedShare: 0.82, StandardShare: 0.89, ActionShare: 0.67,
				NonMemberTargetShare: 0.42,
			},
		},
		{
			IXP: "DE-CIX NYC", Location: "New York, USA", AvgTraffic: "941 Gbps",
			TotalMembers: 256, Scheme: dictionary.ProfileByName("DE-CIX NYC"),
			V4: FamilyParams{
				MembersAtRS: 171, Prefixes: 162469, Routes: 186983,
				ActionUserFrac: 0.48, TaggedRouteFrac: 0.63,
				DNAUserFrac: 0.35, AOTUserFrac: 0.21, PrependUserFrac: 0.08, BHUserFrac: 0.11,
				DNAOccShare: 0.80, AOTOccShare: 0.18,
				ActionPerRoute: 11.0, DefinedShare: 0.80, StandardShare: 0.91, ActionShare: 0.70,
				NonMemberTargetShare: 0.47,
			},
			V6: FamilyParams{
				MembersAtRS: 145, Prefixes: 48951, Routes: 61638,
				ActionUserFrac: 0.31, TaggedRouteFrac: 0.49,
				DNAUserFrac: 0.21, AOTUserFrac: 0.14, PrependUserFrac: 0.04, BHUserFrac: 0.01,
				DNAOccShare: 0.81, AOTOccShare: 0.18,
				ActionPerRoute: 9.5, DefinedShare: 0.81, StandardShare: 0.89, ActionShare: 0.66,
				NonMemberTargetShare: 0.43,
			},
		},
		{
			IXP: "BCIX", Location: "Berlin, Germany", AvgTraffic: "640 Gbps",
			TotalMembers: 145, Scheme: dictionary.ProfileByName("BCIX"),
			V4: FamilyParams{
				MembersAtRS: 88, Prefixes: 106249, Routes: 111115,
				ActionUserFrac: 0.45, TaggedRouteFrac: 0.65,
				DNAUserFrac: 0.36, AOTUserFrac: 0.14, PrependUserFrac: 0.05, BHUserFrac: 0.05,
				DNAOccShare: 0.85, AOTOccShare: 0.14,
				// §5.1: action ≥ 95% of IXP-defined standard communities.
				ActionPerRoute: 12.6, DefinedShare: 0.85, StandardShare: 0.92, ActionShare: 0.955,
				NonMemberTargetShare: 0.40,
			},
			V6: FamilyParams{
				MembersAtRS: 78, Prefixes: 46873, Routes: 50569,
				ActionUserFrac: 0.30, TaggedRouteFrac: 0.55,
				DNAUserFrac: 0.24, AOTUserFrac: 0.09, PrependUserFrac: 0.02, BHUserFrac: 0.01,
				DNAOccShare: 0.88, AOTOccShare: 0.115,
				ActionPerRoute: 13.0, DefinedShare: 0.88, StandardShare: 0.91, ActionShare: 0.955,
				NonMemberTargetShare: 0.38,
			},
		},
		{
			IXP: "Netnod", Location: "Stockholm, Sweden", AvgTraffic: "1.12 Tbps",
			TotalMembers: 187, Scheme: dictionary.ProfileByName("Netnod"),
			V4: FamilyParams{
				MembersAtRS: 127, Prefixes: 132179, Routes: 150670,
				ActionUserFrac: 0.47, TaggedRouteFrac: 0.68,
				DNAUserFrac: 0.38, AOTUserFrac: 0.15, PrependUserFrac: 0.06, BHUserFrac: 0.06,
				DNAOccShare: 0.86, AOTOccShare: 0.13,
				ActionPerRoute: 30.0, DefinedShare: 0.86, StandardShare: 0.93, ActionShare: 0.955,
				NonMemberTargetShare: 0.42,
			},
			V6: FamilyParams{
				MembersAtRS: 101, Prefixes: 45507, Routes: 48874,
				ActionUserFrac: 0.32, TaggedRouteFrac: 0.56,
				DNAUserFrac: 0.26, AOTUserFrac: 0.10, PrependUserFrac: 0.03, BHUserFrac: 0.01,
				DNAOccShare: 0.88, AOTOccShare: 0.115,
				ActionPerRoute: 16.0, DefinedShare: 0.88, StandardShare: 0.92, ActionShare: 0.955,
				NonMemberTargetShare: 0.40,
			},
		},
	}
}

// ProfileByName returns the profile for an IXP name, or nil.
func ProfileByName(name string) *Profile {
	for _, p := range Profiles() {
		if p.IXP == name {
			cp := p
			return &cp
		}
	}
	return nil
}

// BigFour returns the four large IXPs the paper's analyses focus on.
func BigFour() []Profile {
	all := Profiles()
	return all[:4]
}

// SelectProfiles parses an -ixps flag: "big4", "all", or a
// comma-separated list of IXP names (surrounding spaces ignored). An
// unknown, empty or repeated name is an error — a repeated one would
// put the IXP in a lab twice and print its rows twice.
func SelectProfiles(spec string) ([]Profile, error) {
	switch spec {
	case "big4":
		return BigFour(), nil
	case "all":
		return Profiles(), nil
	}
	var out []Profile
	seen := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		p := ProfileByName(name)
		switch {
		case name == "":
			return nil, fmt.Errorf("empty IXP name in %q", spec)
		case p == nil:
			return nil, fmt.Errorf("unknown IXP %q", name)
		case seen[name]:
			return nil, fmt.Errorf("IXP %q named twice", name)
		}
		seen[name] = true
		out = append(out, *p)
	}
	return out, nil
}

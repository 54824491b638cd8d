package ixpgen

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/rs"
)

const testScale = 0.08

// genIndex memoises one workload snapshot per IXP, classified once, for
// the calibration tests.
var indexCache = map[string]*analysis.Index{}

func genIndex(t *testing.T, ixp string) *analysis.Index {
	t.Helper()
	if ix, ok := indexCache[ixp]; ok {
		return ix
	}
	p := ProfileByName(ixp)
	if p == nil {
		t.Fatalf("no profile %q", ixp)
	}
	w, err := Generate(*p, Options{Seed: 42, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	ix := analysis.NewIndex(w.Snapshot("2021-10-04"), p.Scheme)
	indexCache[ixp] = ix
	return ix
}

func genSnapshot(t *testing.T, ixp string) *collector.Snapshot {
	t.Helper()
	return genIndex(t, ixp).Snapshot()
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 8 {
		t.Fatalf("profiles = %d", len(ps))
	}
	for _, p := range ps {
		if p.Scheme == nil {
			t.Errorf("%s: nil scheme", p.IXP)
		}
		if p.V4.Routes < p.V4.Prefixes {
			t.Errorf("%s: v4 routes < prefixes", p.IXP)
		}
		if p.V6.MembersAtRS > p.V4.MembersAtRS {
			t.Errorf("%s: v6 members exceed v4", p.IXP)
		}
		if p.V4.ActionShare <= 0.6 {
			t.Errorf("%s: action share %f not in paper range", p.IXP, p.V4.ActionShare)
		}
	}
	if BigFour()[0].IXP != "IX.br-SP" || len(BigFour()) != 4 {
		t.Error("BigFour wrong")
	}
}

// TestSelectProfiles pins the one -ixps parser: the two keywords, names
// with the spaces around them trimmed (not the one inside "DE-CIX
// Mad"), and an error for an unknown, empty or repeated name.
func TestSelectProfiles(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string // nil: an error
	}{
		{"big4", []string{"IX.br-SP", "DE-CIX", "LINX", "AMS-IX"}},
		{"all", []string{"IX.br-SP", "DE-CIX", "LINX", "AMS-IX", "DE-CIX Mad", "DE-CIX NYC", "BCIX", "Netnod"}},
		{"LINX", []string{"LINX"}},
		{" DE-CIX ,  DE-CIX Mad,AMS-IX ", []string{"DE-CIX", "DE-CIX Mad", "AMS-IX"}},
		{"DE-CIX,NOPE-IX", nil},
		{"DE-CIX,,LINX", nil},
		{"", nil},
		{"DE-CIX,LINX,DE-CIX", nil},
		{"LINX, LINX", nil},
	} {
		ps, err := SelectProfiles(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("SelectProfiles(%q) = %d profiles, want an error", tc.spec, len(ps))
			}
			continue
		}
		var got []string
		for _, p := range ps {
			got = append(got, p.IXP)
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SelectProfiles(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := *ProfileByName("LINX")
	a, err := Generate(p, Options{Seed: 7, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, Options{Seed: 7, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Members, b.Members) {
		t.Error("members differ across identical runs")
	}
	if !reflect.DeepEqual(a.Routes, b.Routes) {
		t.Error("routes differ across identical runs")
	}
	c, err := Generate(p, Options{Seed: 8, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Routes, c.Routes) {
		t.Error("different seeds produced identical routes")
	}
}

func TestTable1Magnitudes(t *testing.T) {
	for _, ixp := range []string{"IX.br-SP", "DE-CIX", "LINX", "AMS-IX"} {
		p := ProfileByName(ixp)
		s := genSnapshot(t, ixp)
		for _, v6 := range []bool{false, true} {
			fam := p.V4
			if v6 {
				fam = p.V6
			}
			c := analysis.CountSnapshot(s, v6)
			wantMembers := int(math.Round(float64(fam.MembersAtRS) * testScale))
			if relErr(float64(c.Members), float64(wantMembers)) > 0.05 {
				t.Errorf("%s v6=%v members = %d, want ≈%d", ixp, v6, c.Members, wantMembers)
			}
			wantRoutes := float64(fam.Routes) * testScale
			if relErr(float64(c.Routes), wantRoutes) > 0.10 {
				t.Errorf("%s v6=%v routes = %d, want ≈%.0f", ixp, v6, c.Routes, wantRoutes)
			}
			wantPrefixes := float64(fam.Prefixes) * testScale
			if relErr(float64(c.Prefixes), wantPrefixes) > 0.15 {
				t.Errorf("%s v6=%v prefixes = %d, want ≈%.0f", ixp, v6, c.Prefixes, wantPrefixes)
			}
		}
	}
}

func TestFig1DefinedShareCalibration(t *testing.T) {
	for _, ixp := range []string{"IX.br-SP", "DE-CIX", "LINX", "AMS-IX"} {
		p := ProfileByName(ixp)
		ix := genIndex(t, ixp)
		for _, v6 := range []bool{false, true} {
			fam := p.V4
			if v6 {
				fam = p.V6
			}
			mix := ix.Mix(v6)
			if got := mix.DefinedShare(); math.Abs(got-fam.DefinedShare) > 0.05 {
				t.Errorf("%s v6=%v defined share = %.3f, want %.3f", ixp, v6, got, fam.DefinedShare)
			}
		}
	}
}

func TestFig2StandardShareCalibration(t *testing.T) {
	for _, ixp := range []string{"IX.br-SP", "DE-CIX", "LINX", "AMS-IX"} {
		p := ProfileByName(ixp)
		ix := genIndex(t, ixp)
		for _, v6 := range []bool{false, true} {
			fam := p.V4
			if v6 {
				fam = p.V6
			}
			mix := ix.Mix(v6)
			if got := mix.StandardShare(); math.Abs(got-fam.StandardShare) > 0.05 {
				t.Errorf("%s v6=%v standard share = %.3f, want %.3f", ixp, v6, got, fam.StandardShare)
			}
			// The paper's headline: standard consistently dominates.
			if mix.StandardShare() < 0.8 {
				t.Errorf("%s v6=%v standard share %.3f below the paper's >80%% finding", ixp, v6, mix.StandardShare())
			}
		}
	}
}

func TestFig3ActionShareCalibration(t *testing.T) {
	for _, ixp := range []string{"IX.br-SP", "DE-CIX", "LINX", "AMS-IX"} {
		p := ProfileByName(ixp)
		ix := genIndex(t, ixp)
		for _, v6 := range []bool{false, true} {
			fam := p.V4
			if v6 {
				fam = p.V6
			}
			got := ix.ActionShare(v6)
			if math.Abs(got-fam.ActionShare) > 0.06 {
				t.Errorf("%s v6=%v action share = %.3f, want %.3f", ixp, v6, got, fam.ActionShare)
			}
			if got < 0.6 {
				t.Errorf("%s v6=%v action share %.3f below the paper's two-thirds floor", ixp, v6, got)
			}
		}
	}
}

func TestFig4aUsageCalibration(t *testing.T) {
	for _, ixp := range []string{"IX.br-SP", "DE-CIX", "LINX", "AMS-IX"} {
		p := ProfileByName(ixp)
		ix := genIndex(t, ixp)
		for _, v6 := range []bool{false, true} {
			fam := p.V4
			if v6 {
				fam = p.V6
			}
			u := ix.Usage(v6)
			if math.Abs(u.ASShare()-fam.ActionUserFrac) > 0.08 {
				t.Errorf("%s v6=%v AS share = %.3f, want %.3f", ixp, v6, u.ASShare(), fam.ActionUserFrac)
			}
			// With very few members the discrete rank-size law cannot
			// concentrate routes as sharply as the paper's population,
			// so the tagged-route share gets a wider band.
			tol := 0.08
			if u.MembersAtRS < 60 {
				tol = 0.18
			}
			if math.Abs(u.RouteShare()-fam.TaggedRouteFrac) > tol {
				t.Errorf("%s v6=%v route share = %.3f, want %.3f (tol %.2f)", ixp, v6, u.RouteShare(), fam.TaggedRouteFrac, tol)
			}
			wantInstances := fam.ActionPerRoute * float64(u.RoutesTotal)
			if relErr(float64(u.ActionInstances), wantInstances) > 0.30 {
				t.Errorf("%s v6=%v action instances = %d, want ≈%.0f", ixp, v6, u.ActionInstances, wantInstances)
			}
		}
	}
}

func TestFig4bConcentration(t *testing.T) {
	// §5.2: few ASes account for most of the instances. At test scale
	// the "top 1%" bucket is a couple of ASes; check the top 5% carries
	// a majority and the bottom 90% of members stays small.
	for _, ixp := range []string{"IX.br-SP", "DE-CIX"} {
		ix := genIndex(t, ixp)
		counts := ix.PerASActionCounts(false)
		u := ix.Usage(false)
		cdf := analysis.ConcentrationCDF(counts, u.MembersAtRS)
		if top5 := analysis.TopShare(cdf, 0.05); top5 < 0.5 {
			t.Errorf("%s: top-5%% share = %.3f, want ≥ 0.5", ixp, top5)
		}
	}
}

func TestTable2PerTypeCalibration(t *testing.T) {
	for _, ixp := range []string{"IX.br-SP", "DE-CIX", "LINX", "AMS-IX"} {
		p := ProfileByName(ixp)
		ix := genIndex(t, ixp)
		for _, v6 := range []bool{false, true} {
			fam := p.V4
			if v6 {
				fam = p.V6
			}
			rows := ix.ASesPerActionType(v6)
			want := map[dictionary.ActionType]float64{
				dictionary.DoNotAnnounceTo: fam.DNAUserFrac,
				dictionary.AnnounceOnlyTo:  fam.AOTUserFrac,
				dictionary.PrependTo:       fam.PrependUserFrac,
				dictionary.Blackhole:       fam.BHUserFrac,
			}
			for _, row := range rows {
				w := want[row.Type]
				// AOT users also emit block-all (a DNA community), so
				// the DNA set legitimately absorbs them.
				tol := 0.08
				if row.Type == dictionary.DoNotAnnounceTo {
					tol = 0.08 + fam.AOTUserFrac
				}
				if math.Abs(row.Share-w) > tol {
					t.Errorf("%s v6=%v %v AS share = %.3f, want ≈%.3f (tol %.2f)", ixp, v6, row.Type, row.Share, w, tol)
				}
				// Zero-support cells must be exactly zero (Table 2).
				if w == 0 && row.ASes != 0 {
					t.Errorf("%s v6=%v %v must be unused, got %d ASes", ixp, v6, row.Type, row.ASes)
				}
			}
		}
	}
}

func TestSec53OccurrenceShares(t *testing.T) {
	for _, ixp := range []string{"IX.br-SP", "DE-CIX", "LINX", "AMS-IX"} {
		ix := genIndex(t, ixp)
		occ := ix.OccurrencesPerType(false)
		total := 0
		for _, n := range occ {
			total += n
		}
		if total == 0 {
			t.Fatalf("%s: no action occurrences", ixp)
		}
		dna := float64(occ[dictionary.DoNotAnnounceTo]) / float64(total)
		aot := float64(occ[dictionary.AnnounceOnlyTo]) / float64(total)
		prep := float64(occ[dictionary.PrependTo]) / float64(total)
		bh := float64(occ[dictionary.Blackhole]) / float64(total)
		if dna < 0.60 || dna > 0.95 {
			t.Errorf("%s: DNA occurrence share %.3f outside the paper's 66.6–92%% band (±tol)", ixp, dna)
		}
		if aot < 0.05 || aot > 0.40 {
			t.Errorf("%s: AOT occurrence share %.3f outside the paper's 17.7–31.4%% band (±tol)", ixp, aot)
		}
		if prep > 0.03 {
			t.Errorf("%s: prepend share %.3f above the paper's <1.9%% (+tol)", ixp, prep)
		}
		if bh > 0.01 {
			t.Errorf("%s: blackhole share %.3f above the paper's <0.4%% (+tol)", ixp, bh)
		}
		// Ordering must match §5.3: DNA > AOT > prepend ≥ blackhole.
		if !(dna > aot && aot > prep) {
			t.Errorf("%s: type ordering broken: dna=%.3f aot=%.3f prep=%.3f bh=%.3f", ixp, dna, aot, prep, bh)
		}
	}
}

func TestSec55NonMemberTargeting(t *testing.T) {
	for _, ixp := range []string{"IX.br-SP", "DE-CIX", "LINX", "AMS-IX"} {
		p := ProfileByName(ixp)
		ix := genIndex(t, ixp)
		for _, v6 := range []bool{false, true} {
			fam := p.V4
			if v6 {
				fam = p.V6
			}
			nm := ix.NonMemberTargeting(v6, 20)
			// Small member pools make member-side distinct draws spill
			// into the non-member pool, so tiny families get headroom.
			tol := 0.10
			if u := ix.Usage(v6); u.MembersAtRS < 60 {
				tol = 0.16
			}
			if math.Abs(nm.Share()-fam.NonMemberTargetShare) > tol {
				t.Errorf("%s v6=%v non-member share = %.3f, want %.3f (tol %.2f)", ixp, v6, nm.Share(), fam.NonMemberTargetShare, tol)
			}
			// The paper's headline: always above 31.8% (minus tolerance).
			if nm.Share() < 0.25 {
				t.Errorf("%s v6=%v non-member share %.3f below the paper's floor", ixp, v6, nm.Share())
			}
		}
	}
}

func TestFig7HurricaneElectricTopCulprit(t *testing.T) {
	for _, ixp := range []string{"IX.br-SP", "DE-CIX", "LINX", "AMS-IX"} {
		ix := genIndex(t, ixp)
		culprits := ix.CulpritRanking(false, 10)
		if len(culprits) == 0 {
			t.Fatalf("%s: no culprits", ixp)
		}
		found := false
		for i, c := range culprits {
			if c.ASN == 6939 && i < 3 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: Hurricane Electric not among top-3 culprits: %v", ixp, culprits[:min(3, len(culprits))])
		}
	}
}

func TestFig5TopTargetsPlausible(t *testing.T) {
	// §5.4's per-IXP most-avoided member network must appear among the
	// top-10 targets (Hurricane Electric at IX.br-SP).
	ix := genIndex(t, "IX.br-SP")
	targets := ix.TopTargets(false, 10)
	found := false
	for _, tgt := range targets {
		if tgt.ASN == 6939 {
			found = true
		}
	}
	if !found {
		t.Errorf("IX.br-SP: Hurricane Electric not in top-10 targets %v", targets)
	}
}

func TestFig6TopNonMemberTargetsPlausible(t *testing.T) {
	// Fig. 6: the paper's headline non-member targets (Google at LINX,
	// OVHcloud at AMS-IX) must rank in the top-5 of the non-member
	// targeting analysis.
	expectations := map[string]uint32{
		"LINX":   15169, // Google
		"AMS-IX": 16276, // OVHcloud
	}
	for ixp, want := range expectations {
		ix := genIndex(t, ixp)
		nm := ix.NonMemberTargeting(false, 5)
		found := false
		for _, cc := range nm.Top {
			if cc.Class.TargetASN == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: AS%d not in top-5 non-member targets %v", ixp, want, nm.Top)
		}
	}
}

func TestPopulateAcceptsEverything(t *testing.T) {
	p := *ProfileByName("LINX")
	w, err := Generate(p, Options{Seed: 3, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	server, err := rs.New(rs.Config{Scheme: p.Scheme, ScrubActions: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(server); err != nil {
		t.Fatal(err)
	}
	st := server.Stats()
	if st.RoutesV4 == 0 || st.RoutesV6 == 0 {
		t.Errorf("stats = %+v", st)
	}
	// Exactly the deliberately-invalid announcements are filtered.
	if st.FilteredRoutes != len(w.Invalid) {
		t.Errorf("filtered = %d, want %d", st.FilteredRoutes, len(w.Invalid))
	}
	if st.RoutesV4+st.RoutesV6 != len(w.Routes) {
		t.Errorf("accepted = %d, want %d", st.RoutesV4+st.RoutesV6, len(w.Routes))
	}
}

func TestMemberASNsAvoidSchemeAnchors(t *testing.T) {
	for _, p := range Profiles() {
		w, err := Generate(p, Options{Seed: 1, Scale: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range w.Members {
			if m.ASN == uint32(p.Scheme.RSASN) || m.ASN == uint32(p.Scheme.InfoASN) {
				t.Errorf("%s: member ASN %d collides with a scheme anchor", p.IXP, m.ASN)
			}
			if m.ASN == 0 || m.ASN > 65535 {
				t.Errorf("%s: member ASN %d outside 16-bit range", p.IXP, m.ASN)
			}
		}
	}
}

func TestGenerateDayTemporalShape(t *testing.T) {
	p := *ProfileByName("AMS-IX")
	opts := TemporalOptions{Seed: 11, Scale: 0.02, Days: 14, ValleyDays: []int{9}}

	var counts []int
	for d := 0; d < 14; d++ {
		w, date, err := GenerateDay(p, opts, d)
		if err != nil {
			t.Fatal(err)
		}
		if date == "" {
			t.Fatal("empty date")
		}
		counts = append(counts, len(w.Routes))
	}
	// Within the first week the variation must stay small (Table 3).
	minC, maxC := counts[0], counts[0]
	for _, c := range counts[1:7] {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if diff := float64(maxC-minC) / float64(minC); diff > 0.05 {
		t.Errorf("weekly variation = %.3f, want < 0.05", diff)
	}
	// The valley day must show a ≥30% drop vs its predecessor.
	if drop := 1 - float64(counts[9])/float64(counts[8]); drop < 0.30 {
		t.Errorf("valley drop = %.3f, want ≥ 0.30", drop)
	}
	// And recovery after.
	if counts[10] < int(0.85*float64(counts[8])) {
		t.Errorf("no recovery after valley: %v", counts[8:12])
	}
}

func TestSnapshotMatchesCollectedState(t *testing.T) {
	// Workload.Snapshot must agree with Populate + RS state on the
	// aggregate counts (the fast path and the full path are the same
	// dataset).
	p := *ProfileByName("AMS-IX")
	w, err := Generate(p, Options{Seed: 5, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot("2021-10-04")

	server, err := rs.New(rs.Config{Scheme: p.Scheme})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(server); err != nil {
		t.Fatal(err)
	}
	st := server.Stats()
	c4 := analysis.CountSnapshot(snap, false)
	c6 := analysis.CountSnapshot(snap, true)
	if st.RoutesV4 != c4.Routes || st.RoutesV6 != c6.Routes {
		t.Errorf("route counts disagree: rs %d/%d snap %d/%d", st.RoutesV4, st.RoutesV6, c4.Routes, c6.Routes)
	}
	if st.MembersV4 != snap.MembersV4() || st.MembersV6 != snap.MembersV6() {
		t.Errorf("member counts disagree")
	}
	if st.CommunitiesV4 != c4.Communities {
		t.Errorf("community counts disagree: rs %d snap %d", st.CommunitiesV4, c4.Communities)
	}
}

// TestSmallIXPsGenerate covers the four smaller IXPs the paper
// comments on alongside the big four: generation must succeed and the
// §5.1 observation (action share above two-thirds, above 95% at BCIX
// and Netnod) must hold.
func TestSmallIXPsGenerate(t *testing.T) {
	for _, ixp := range []string{"DE-CIX Mad", "DE-CIX NYC", "BCIX", "Netnod"} {
		p := ProfileByName(ixp)
		w, err := Generate(*p, Options{Seed: 42, Scale: 0.3})
		if err != nil {
			t.Fatalf("%s: %v", ixp, err)
		}
		ix := analysis.NewIndex(w.Snapshot("2021-10-04"), p.Scheme)
		share := ix.ActionShare(false)
		if share < 0.6 {
			t.Errorf("%s: action share %.3f below two-thirds", ixp, share)
		}
		if (ixp == "BCIX" || ixp == "Netnod") && share < 0.9 {
			t.Errorf("%s: action share %.3f, paper reports >95%%", ixp, share)
		}
		u := ix.Usage(false)
		if u.ASesUsing == 0 || u.ActionInstances == 0 {
			t.Errorf("%s: empty usage %+v", ixp, u)
		}
		nm := ix.NonMemberTargeting(false, 5)
		if nm.Share() < 0.2 {
			t.Errorf("%s: non-member share %.3f suspiciously low", ixp, nm.Share())
		}
	}
}

// TestAllEightIXPsSnapshotConsistency runs the cheap structural sanity
// checks on every profile at once.
func TestAllEightIXPsSnapshotConsistency(t *testing.T) {
	for _, p := range Profiles() {
		w, err := Generate(p, Options{Seed: 9, Scale: 0.02})
		if err != nil {
			t.Fatalf("%s: %v", p.IXP, err)
		}
		s := w.Snapshot("2021-10-04")
		memberSet := s.MemberSet()
		for _, r := range s.Routes {
			if !memberSet[r.PeerAS()] {
				t.Fatalf("%s: route %s announced by non-member AS%d", p.IXP, r.Prefix, r.PeerAS())
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("%s: invalid route: %v", p.IXP, err)
			}
		}
		c4 := analysis.CountSnapshot(s, false)
		c6 := analysis.CountSnapshot(s, true)
		if c4.Routes == 0 || c6.Routes == 0 {
			t.Errorf("%s: missing family (%d/%d routes)", p.IXP, c4.Routes, c6.Routes)
		}
		if c4.Prefixes > c4.Routes {
			t.Errorf("%s: prefixes (%d) exceed routes (%d)", p.IXP, c4.Prefixes, c4.Routes)
		}
	}
}

// TestInvalidRoutesAreFiltered pins the §3 filtered-vs-accepted split:
// the generator's invalid announcements must all be rejected by the
// import policy, and the snapshot's FilteredCount must agree.
func TestInvalidRoutesAreFiltered(t *testing.T) {
	p := *ProfileByName("DE-CIX")
	w, err := Generate(p, Options{Seed: 6, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Invalid) < 2 {
		t.Fatalf("invalid routes = %d, want ≥ 2", len(w.Invalid))
	}
	server, err := rs.New(rs.Config{Scheme: p.Scheme, MaxPathLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(server); err != nil {
		t.Fatal(err)
	}
	if got := server.Stats().FilteredRoutes; got != len(w.Invalid) {
		t.Errorf("RS filtered = %d, want %d", got, len(w.Invalid))
	}
	if got := w.Snapshot("2021-10-04").FilteredCount; got != len(w.Invalid) {
		t.Errorf("snapshot FilteredCount = %d, want %d", got, len(w.Invalid))
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/custom.json"
	p := *ProfileByName("AMS-IX")
	p.IXP = "CUSTOM-IX"
	p.Scheme.IXP = "CUSTOM-IX"
	if err := SaveProfile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.IXP != "CUSTOM-IX" || got.Scheme.RSASN != p.Scheme.RSASN {
		t.Errorf("round trip = %+v", got)
	}
	if !reflect.DeepEqual(got.V4, p.V4) || !reflect.DeepEqual(got.V6, p.V6) {
		t.Error("family params lost")
	}
	// The loaded profile must generate.
	w, err := Generate(*got, Options{Seed: 1, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Routes) == 0 {
		t.Error("custom profile generated nothing")
	}
}

func TestLoadProfileValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(mutate func(*Profile)) string {
		p := *ProfileByName("LINX")
		mutate(&p)
		path := dir + "/bad.json"
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(f).Encode(p); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	cases := map[string]func(*Profile){
		"no name":         func(p *Profile) { p.IXP = "" },
		"no scheme":       func(p *Profile) { p.Scheme = nil },
		"bad fraction":    func(p *Profile) { p.V4.ActionUserFrac = 1.5 },
		"routes<prefixes": func(p *Profile) { p.V4.Routes = p.V4.Prefixes - 1 },
		"v6>v4 members":   func(p *Profile) { p.V6.MembersAtRS = p.V4.MembersAtRS + 1 },
		"shares exceed 1": func(p *Profile) { p.V4.DNAOccShare, p.V4.AOTOccShare = 0.8, 0.4 },
		"zero members":    func(p *Profile) { p.V4.MembersAtRS = 0 },
	}
	for name, mutate := range cases {
		if _, err := LoadProfile(write(mutate)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if _, err := LoadProfile(dir + "/missing.json"); err == nil {
		t.Error("missing file: want error")
	}
	if err := os.WriteFile(dir+"/garbage.json", []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(dir + "/garbage.json"); err == nil {
		t.Error("garbage JSON: want error")
	}
}

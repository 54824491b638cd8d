package report

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"ixplight/internal/analysis"
	"ixplight/internal/asdb"
	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
)

// testLab builds a small two-IXP lab shared across report tests.
var cachedLab *Lab

func testLab(t *testing.T) *Lab {
	t.Helper()
	if cachedLab != nil {
		return cachedLab
	}
	profiles := []ixpgen.Profile{
		*ixpgen.ProfileByName("DE-CIX"),
		*ixpgen.ProfileByName("AMS-IX"),
	}
	l, err := NewLab(profiles, 7, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cachedLab = l
	return l
}

func TestNewLabPopulatesSnapshots(t *testing.T) {
	l := testLab(t)
	if len(l.Snapshots) != 2 {
		t.Fatalf("snapshots = %d", len(l.Snapshots))
	}
	for _, name := range []string{"DE-CIX", "AMS-IX"} {
		s, ok := l.Snapshots[name]
		if !ok || len(s.Routes) == 0 || len(s.Members) == 0 {
			t.Errorf("%s snapshot incomplete", name)
		}
	}
}

// TestEveryExperimentRuns executes each registered experiment and
// checks for non-empty, section-headed output.
func TestEveryExperimentRuns(t *testing.T) {
	l := testLab(t)
	for _, name := range ExperimentNames {
		// The temporal experiments regenerate day series; keep them to
		// the cheap list here (they have their own benches).
		if name == "table4" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := l.Run(&buf, name); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if len(out) == 0 {
				t.Fatal("no output")
			}
			if !strings.Contains(out, "=====") {
				t.Error("missing section header")
			}
			// Every experiment must mention each IXP.
			for _, p := range l.Profiles {
				if !strings.Contains(out, p.IXP) {
					t.Errorf("output misses IXP %s", p.IXP)
				}
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	l := testLab(t)
	var buf bytes.Buffer
	if err := l.Run(&buf, "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig1OutputShape(t *testing.T) {
	l := testLab(t)
	var buf bytes.Buffer
	if err := l.Run(&buf, "fig1"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figure1,DE-CIX,IPv4", "figure1,DE-CIX,IPv6", "defined=", "unknown="} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output misses %q:\n%s", want, out)
		}
	}
}

func TestTable2OutputShape(t *testing.T) {
	l := testLab(t)
	var buf bytes.Buffer
	if err := l.Run(&buf, "table2"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"do-not-announce-to", "announce-only-to", "prepend-to", "blackholing"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output misses %q", want)
		}
	}
}

func TestFig7NamesCulprits(t *testing.T) {
	l := testLab(t)
	var buf bytes.Buffer
	if err := l.Run(&buf, "fig7"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Hurricane Electric") {
		t.Error("fig7 output does not name Hurricane Electric")
	}
}

func TestVisibilityReportsGap(t *testing.T) {
	l := testLab(t)
	var buf bytes.Buffer
	if err := l.Run(&buf, "visibility"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "invisible") {
		t.Errorf("visibility output unexpected:\n%s", out)
	}
	// The core claim: ~100% of action instances invisible at collectors.
	if !strings.Contains(out, "100.0% invisible") && !strings.Contains(out, "99.") {
		t.Errorf("visibility gap suspiciously low:\n%s", out)
	}
}

// TestVisibilityAllocs pins what one `visibility` experiment allocates
// over the big four at the batch job's scale: per profile one generated
// workload and one populated route server, then both views counted in
// place. Recorded at 93.5 k; the ceiling leaves room for a Go release,
// not for a copy per route (the experiment cost 202 k when the export
// and every Adj-RIB-In were cloned to be counted and each route's
// action summary was a struct of maps).
func TestVisibilityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lab := NewLabShell(ixpgen.BigFour(), 42, 0.004, 0)
	allocs := testing.AllocsPerRun(3, func() {
		if err := lab.Run(io.Discard, "visibility"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per visibility run: %.0f", allocs)
	const ceiling = 100_000
	if allocs > ceiling {
		t.Errorf("one visibility run costs %.0f allocations, want ≤ %d", allocs, ceiling)
	}
}

func TestSanitationRemovesInjectedValleys(t *testing.T) {
	l := testLab(t)
	var buf bytes.Buffer
	if err := l.Run(&buf, "sanitation"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 removed as valleys") {
		t.Errorf("sanitation output unexpected:\n%s", buf.String())
	}
}

func TestTable1RowFromSnapshot(t *testing.T) {
	l := testLab(t)
	s := l.Snapshots["DE-CIX"]
	row := Table1RowFromSnapshot(s, "Frankfurt", "9.27 Tbps", 1072)
	if row.IXP != "DE-CIX" || row.MembersRSv4 == 0 || row.RoutesV4 == 0 {
		t.Errorf("row = %+v", row)
	}
	if row.RoutesV4 < row.PrefixesV4 {
		t.Errorf("routes (%d) < prefixes (%d)", row.RoutesV4, row.PrefixesV4)
	}
}

// TestShareRangeKeepsZeroMinimum: a first IXP with a 0 % share is a
// value, not "unset" — the second IXP must not overwrite it.
func TestShareRangeKeepsZeroMinimum(t *testing.T) {
	var r shareRange
	r.update(0)
	r.update(0.4)
	if got := r.String(); got != "0.0%–40.0%" {
		t.Fatalf("range of 0 then 0.4 = %q, want 0.0%%–40.0%%", got)
	}
	var one shareRange
	one.update(0.25)
	if got := one.String(); got != "25.0%–25.0%" {
		t.Fatalf("range of one value = %q", got)
	}
}

// TestRankingWritersMatchFmt holds the append-built ranking rows to the
// fmt verbs they replaced, on the cases the lab's data does not reach:
// no registry, an unregistered AS, cells wider than their column and a
// rank past 99.
func TestRankingWritersMatchFmt(t *testing.T) {
	reg := asdb.NewRegistry()
	reg.Register(asdb.AS{ASN: 15169, Name: "Google"})
	reg.Register(asdb.AS{ASN: 64496, Name: "A network whose name — with a dash — overflows its column"})
	name := func(reg *asdb.Registry, asn uint32) string {
		if reg != nil {
			return reg.Name(asn)
		}
		return fmt.Sprintf("AS%d", asn)
	}
	var top []analysis.CommunityCount
	var culprits []analysis.Culprit
	for i := 0; i < 120; i++ {
		asn := []uint32{15169, 64496, 4200000000, 1}[i%4]
		cl := dictionary.Class{Known: true, Action: dictionary.ActionTypes[i%len(dictionary.ActionTypes)],
			Target: []dictionary.TargetKind{dictionary.TargetPeer, dictionary.TargetAll, dictionary.TargetNone}[i%3], TargetASN: asn}
		top = append(top, analysis.CommunityCount{Community: bgp.NewCommunity(uint16(i*547), uint16(i*7919)), Class: cl, Count: i * i * 1013})
		culprits = append(culprits, analysis.Culprit{ASN: asn, Count: i * 123457})
	}
	for _, reg := range []*asdb.Registry{reg, nil} {
		var got, want bytes.Buffer
		WriteTopCommunities(&got, "Figure 5", "DE-CIX", top, reg)
		fmt.Fprintf(&want, "%s — %s\n", "Figure 5", "DE-CIX")
		for i, cc := range top {
			target := ""
			switch cc.Class.Target {
			case dictionary.TargetAll:
				target = "→ all peers"
			case dictionary.TargetPeer:
				target = "→ " + name(reg, cc.Class.TargetASN)
			}
			fmt.Fprintf(&want, "%2d. %-14s %-20s %-28s %d\n", i+1, cc.Community, cc.Class.Action, target, cc.Count)
		}
		if got.String() != want.String() {
			t.Errorf("WriteTopCommunities (registry %v) diverges from fmt:\n got %q\nwant %q", reg != nil, got.String(), want.String())
		}
		for _, total := range []int{0, 7654321} {
			got.Reset()
			want.Reset()
			WriteCulprits(&got, "LINX", culprits, total, reg)
			fmt.Fprintf(&want, "Figure 7 — %s (total non-member-targeting instances: %d)\n", "LINX", total)
			for i, c := range culprits {
				share := 0.0
				if total > 0 {
					share = float64(c.Count) / float64(total)
				}
				fmt.Fprintf(&want, "%2d. %-24s %8d (%.1f%%)\n", i+1, name(reg, c.ASN), c.Count, 100*share)
			}
			if got.String() != want.String() {
				t.Errorf("WriteCulprits (registry %v, total %d) diverges from fmt:\n got %q\nwant %q", reg != nil, total, got.String(), want.String())
			}
		}
	}
}

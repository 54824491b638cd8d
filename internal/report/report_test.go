package report

import (
	"bytes"
	"io"
	"strings"
	"testing"

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

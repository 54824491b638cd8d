package report

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"testing"
	"text/tabwriter"

	"ixplight/internal/analysis"
	"ixplight/internal/dictionary"
)

// printedFloats parses every decimal the big-four test lab's -exp all
// prints back into a float64, with its neighbours one ulp away and its
// share form (a hundredth): the values appendFixed renders there, or
// within a rounding of them.
func printedFloats(tb testing.TB) []float64 {
	tb.Helper()
	outs, err := bigFourLab(tb).RunMany(ExperimentNames)
	if err != nil {
		tb.Fatal(err)
	}
	seen := map[float64]bool{}
	var vs []float64
	for _, m := range regexp.MustCompile(`-?[0-9]+\.[0-9]+`).FindAll(bytes.Join(outs, nil), -1) {
		v, err := strconv.ParseFloat(string(m), 64)
		if err != nil {
			tb.Fatal(err)
		}
		for _, u := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)), v / 100} {
			if !seen[u] {
				seen[u] = true
				vs = append(vs, u)
			}
		}
	}
	return vs
}

// FuzzAppendFixed holds appendFixed to strconv.AppendFloat(…, 'f', p,
// 64) at every precision 0–6 the report prints with. The seeds are
// exact and near ties, negatives that round to -0.0…, carries across
// a power of ten, NaN and the infinities, the 2^52 boundary, random bit
// patterns and shares, and every float the test lab prints.
func FuzzAppendFixed(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1), 0.05, 0.25, 0.125, 0.5, 1.5, 2.5, 0.35, 1.005, 2.675, 0.0000005, 5e-7,
		-0.04, -0.05, -0.06, -0.0000004, -1e-300, 1e-300, 5e-324,
		9.95, 9.96, 99.95, 99.96, 0.9999995, 0.99999949, 999999.5, 999.9996,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64,
		1 << 52, 1<<52 - 0.5, 1<<52 + 1, 4503599627370495.5 / 1e6, 1 << 53, 1e15, 1e300,
	}
	rng := rand.New(rand.NewSource(1))
	for range 300 {
		seeds = append(seeds, math.Float64frombits(rng.Uint64()), rng.Float64(), 100*float64(rng.Intn(1000))/float64(1+rng.Intn(1000)))
	}
	seeds = append(seeds, printedFloats(f)...)
	for _, v := range seeds {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		for prec := range 7 {
			want := strconv.AppendFloat([]byte("x"), v, 'f', prec, 64)
			if got := appendFixed([]byte("x"), v, prec); !bytes.Equal(got, want) {
				t.Errorf("appendFixed(%v [%#x], %d) = %s, strconv %s", v, math.Float64bits(v), prec, got[1:], want[1:])
			}
		}
	})
}

// TestTablesMatchTabwriter holds the self-padded Tables 1 and 2 to the
// tabwriter layout they replaced, on cells the lab's data does not
// reach: non-ASCII text, a cell far wider than its column's others, and
// an empty table.
func TestTablesMatchTabwriter(t *testing.T) {
	rows := []Table1Row{
		{IXP: "IX.br-SP", Location: "São Paulo", AvgTraffic: "14.2 Tbps", Members: 2312, MembersRSv4: 1830, RoutesV6: 7},
		{IXP: "DE-CIX", Location: "Frankfurt am Main — a long location cell", AvgTraffic: "9 Tbps", PrefixesV4: 1 << 30},
		{IXP: "東京", Location: "", AvgTraffic: "→", RoutesV4: -1},
	}
	typed := []analysis.TypeUsage{
		{Type: dictionary.DoNotAnnounceTo, ASes: 123456, Share: 0.999},
		{Type: dictionary.Blackhole, ASes: 0, Share: 0},
		{Type: dictionary.PrependTo, ASes: 7, Share: 1.0 / 3},
	}
	for _, n := range []int{0, 1, len(rows)} {
		var want bytes.Buffer
		tw := tabwriter.NewWriter(&want, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "IXP\tLocation\tTraffic\tMembers\tRS v4\tRS v6\tPrefixes v4\tPrefixes v6\tRoutes v4\tRoutes v6")
		for _, r := range rows[:n] {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", r.IXP, r.Location, r.AvgTraffic,
				r.Members, r.MembersRSv4, r.MembersRSv6, r.PrefixesV4, r.PrefixesV6, r.RoutesV4, r.RoutesV6)
		}
		tw.Flush()
		if got := AppendTable1([]byte("kept\n"), rows[:n]); string(got) != "kept\n"+want.String() {
			t.Errorf("Table 1 of %d rows:\n got %q\nwant %q", n, got, "kept\n"+want.String())
		}

		want.Reset()
		tw = tabwriter.NewWriter(&want, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "Table 2 — %s (%s)\n", "IX.br-SP", "IPv6")
		for _, r := range typed[:n] {
			fmt.Fprintf(tw, "%s\t%d\t(%.1f%%)\n", r.Type, r.ASes, 100*r.Share)
		}
		tw.Flush()
		if got := AppendTable2(nil, "IX.br-SP", "IPv6", typed[:n]); string(got) != want.String() {
			t.Errorf("Table 2 of %d rows:\n got %q\nwant %q", n, got, want.String())
		}
	}
}

// renderAllocs is what one experiment costs in allocations, computing
// and rendering its rows into a buffer that already has room, over the
// big-four test lab: the cost an ixpd cold experiment request pays for
// its text. Every allocation left is the experiment's working state
// (rankings, CDFs, valley lists, the intersection's sorted target
// lists); the twenty cost 1,250 together, measured the same way, while
// rows went through fmt and tabwriter (fig4c 213, table2 199, intersect
// 122, table4 108), and intersect cost 64 while its target sets were
// maps. visibility,
// which simulates four route servers, has its own ceiling
// (TestVisibilityAllocs).
var renderAllocs = map[string]float64{
	"table1": 1, "fig1": 0, "fig2": 0, "fig3": 0, "fig4a": 0, "fig4b": 8, "fig4c": 4,
	"table2": 8, "sec53": 0, "fig5": 8, "fig6": 8, "fig7": 8, "table3": 20, "table4": 24,
	"sanitation": 16, "extlarge": 0, "sec56": 12, "intersect": 35, "categories": 8, "summary": 0,
}

// TestRenderAllocs pins each experiment's allocations (renderAllocs).
// Rendering itself appends into the caller's buffer and allocates
// nothing, so what is left is the experiments' own working state; a
// row formatted through fmt or tabwriter again shows here by name.
func TestRenderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lab := bigFourLab(t)
	buf := make([]byte, 0, 1<<20)
	for _, name := range ExperimentNames {
		if name == "visibility" {
			continue
		}
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if buf, err = lab.AppendRun(buf[:0], name); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%-10s %4.0f allocations", name, allocs)
		if ceiling, ok := renderAllocs[name]; !ok || allocs > ceiling {
			t.Errorf("%s: %.0f allocations, want ≤ %.0f", name, allocs, ceiling)
		}
	}
}

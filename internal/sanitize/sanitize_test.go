package sanitize

import (
	"slices"
	"testing"

	"ixplight/internal/analysis"
)

// series builds one day per size: n members and 3n IPv4 prefixes.
func series(sizes ...int) []analysis.DayCounts {
	out := make([]analysis.DayCounts, len(sizes))
	for i, n := range sizes {
		out[i] = analysis.DayCounts{Date: "2021-07-19", Members: n,
			V4: analysis.SnapshotCounts{Members: n, Prefixes: 3 * n, Routes: 3 * n}}
	}
	return out
}

func TestDetectValleySimple(t *testing.T) {
	// 100,100,60,100,100: day 2 drops 40% and recovers.
	snaps := series(100, 100, 60, 100, 100)
	valleys := DetectValleys(snaps)
	if len(valleys) != 1 || valleys[0] != 2 {
		t.Errorf("valleys = %v, want [2]", valleys)
	}
}

func TestGenuineDeclineIsNotAValley(t *testing.T) {
	// Drops 40% and stays down: real change, keep it.
	snaps := series(100, 100, 60, 58, 59, 60)
	if valleys := DetectValleys(snaps); len(valleys) != 0 {
		t.Errorf("valleys = %v, want none (no recovery)", valleys)
	}
}

func TestSmallDipIgnored(t *testing.T) {
	// 20% dip is under the 30% threshold.
	snaps := series(100, 80, 100)
	if valleys := DetectValleys(snaps); len(valleys) != 0 {
		t.Errorf("valleys = %v, want none", valleys)
	}
}

func TestRecoveryOutsideWindow(t *testing.T) {
	// Recovery happens 5 snapshots later, past the default window of 3.
	snaps := series(100, 60, 61, 60, 61, 60, 100)
	if valleys := DetectValleys(snaps); len(valleys) != 0 {
		t.Errorf("valleys = %v, want none (late recovery)", valleys)
	}
	// Recovery on the window's last snapshot still counts, and so does
	// every day of the three-day outage it ends.
	if valleys := DetectValleys(series(100, 60, 61, 60, 100)); !slices.Equal(valleys, []int{1, 2, 3}) {
		t.Errorf("valleys = %v, want [1 2 3] (recovery on day 3 of the window)", valleys)
	}
}

// TestOutageDaysAreAllValleys: an outage longer than one day is a
// valley on each of its days. Each day is measured against the last
// healthy day before it: measured against the day before, the second
// low day would look level with the first one and stay in the series.
func TestOutageDaysAreAllValleys(t *testing.T) {
	prefixOnly := series(100, 100, 100, 100, 100, 100)
	prefixOnly[2].V4.Prefixes, prefixOnly[3].V4.Prefixes = 90, 95
	for _, tc := range []struct {
		name string
		days []analysis.DayCounts
		want []int
	}{
		{"two days", series(100, 100, 60, 60, 100, 100), []int{2, 3}},
		{"two days, deeper on the second", series(100, 100, 65, 50, 100, 100), []int{2, 3}},
		{"three days", series(100, 100, 60, 62, 61, 100), []int{2, 3, 4}},
		{"two outages", series(100, 60, 60, 100, 100, 55, 55, 100), []int{1, 2, 5, 6}},
		{"two days of prefixes only", prefixOnly, []int{2, 3}},
		{"a valley, then a genuine decline", series(100, 60, 100, 60, 60, 60, 60), []int{1}},
		{"longer than the recovery window", series(100, 60, 60, 60, 60, 100), nil},
	} {
		if got := DetectValleys(tc.days); !slices.Equal(got, tc.want) {
			t.Errorf("%s: valleys = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMultipleValleys(t *testing.T) {
	snaps := series(100, 50, 100, 100, 40, 100, 100)
	valleys := DetectValleys(snaps)
	if len(valleys) != 2 || valleys[0] != 1 || valleys[1] != 4 {
		t.Errorf("valleys = %v, want [1 4]", valleys)
	}
}

func TestCleanRemovesValleys(t *testing.T) {
	snaps := series(100, 100, 55, 100, 100)
	kept, removed := Clean(snaps)
	if removed != 1 || len(kept) != 4 {
		t.Errorf("removed = %d kept = %d", removed, len(kept))
	}
	for _, d := range kept {
		if d.Members == 55 {
			t.Error("valley snapshot survived cleaning")
		}
	}
}

func TestCleanEmptyAndSingle(t *testing.T) {
	if kept, removed := Clean(nil); removed != 0 || len(kept) != 0 {
		t.Error("empty series mishandled")
	}
	one := series(100)
	if kept, removed := Clean(one); removed != 0 || len(kept) != 1 {
		t.Error("single snapshot mishandled")
	}
}

func TestPrefixValleyAlsoDetected(t *testing.T) {
	// Members stable, prefixes collapse: collection lost routes only.
	snaps := series(100, 100, 100, 100)
	snaps[2].V4.Prefixes = 90 // 300 → 90 prefixes (70% drop)
	valleys := DetectValleys(snaps)
	if len(valleys) != 1 || valleys[0] != 2 {
		t.Errorf("valleys = %v, want [2]", valleys)
	}
}

func TestZeroPreviousDaySafe(t *testing.T) {
	snaps := series(0, 0, 10)
	if valleys := DetectValleys(snaps); len(valleys) != 0 {
		t.Errorf("valleys = %v on zero series", valleys)
	}
}

// TestWithoutAWindow: a window cut from the front of a series drops the
// series' valleys that fall inside it and ignores the others.
func TestWithoutAWindow(t *testing.T) {
	days := series(100, 100, 55, 100, 100, 100, 40, 100)
	valleys := DetectValleys(days)
	kept := Without(days[:5], valleys)
	if len(valleys) != 2 || len(kept) != 4 || kept[2].Members != 100 {
		t.Errorf("valleys %v, window kept %+v; want day 2 dropped and day 6 ignored", valleys, kept)
	}
}

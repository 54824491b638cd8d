package analysis

import (
	"net/netip"
	"time"

	"ixplight/internal/collector"
)

// SnapshotCounts are the four quantities Appendix A tracks per
// snapshot, family and IXP.
type SnapshotCounts struct {
	Members     int
	Prefixes    int
	Routes      int
	Communities int
}

// DayCounts is what a day of a series is read for: the route server's
// member count (§3 sanitation, both families) and each family's
// Appendix A row (Tables 3/4).
type DayCounts struct {
	Date    string
	Members int
	V4, V6  SnapshotCounts
}

// Family returns one family's Appendix A row.
func (d DayCounts) Family(v6 bool) SnapshotCounts {
	if v6 {
		return d.V6
	}
	return d.V4
}

// CountDay counts a routed snapshot's day in one walk over its routes.
// Address family partitions the prefix set, so one set tells each
// family's distinct prefixes apart.
func CountDay(s *collector.Snapshot) DayCounts {
	d := DayCounts{Date: s.Date, Members: len(s.Members),
		V4: SnapshotCounts{Members: s.MembersV4()}, V6: SnapshotCounts{Members: s.MembersV6()}}
	prefixes := make(map[netip.Prefix]struct{}, len(s.Routes))
	for i := range s.Routes {
		r := &s.Routes[i]
		c := &d.V4
		if r.IsIPv6() {
			c = &d.V6
		}
		c.Routes++
		c.Communities += r.CommunityCount()
		if _, seen := prefixes[r.Prefix]; !seen {
			prefixes[r.Prefix] = struct{}{}
			c.Prefixes++
		}
	}
	return d
}

// StabilityRow summarises one quantity over a snapshot window: its
// minimum, maximum and percentual min-to-max difference (Tables 3/4).
type StabilityRow struct {
	Min, Max int
	DiffPct  float64
}

// StabilityTable is one Table 3/4 line: the variation of members,
// prefixes, routes and communities over a set of snapshots.
type StabilityTable struct {
	Members     StabilityRow
	Prefixes    StabilityRow
	Routes      StabilityRow
	Communities StabilityRow
}

// MaxDiffPct returns the largest variation across the four quantities,
// the number the paper quotes ("the variation ... was under 4%").
func (t StabilityTable) MaxDiffPct() float64 {
	return max(t.Members.DiffPct, t.Prefixes.DiffPct, t.Routes.DiffPct, t.Communities.DiffPct)
}

// Stability computes one family's Table 3/4 row over a window of days.
func Stability(days []DayCounts, v6 bool) StabilityTable {
	var t StabilityTable
	rows := [...]*StabilityRow{&t.Members, &t.Prefixes, &t.Routes, &t.Communities}
	for i := range days {
		c := days[i].Family(v6)
		for k, v := range [...]int{c.Members, c.Prefixes, c.Routes, c.Communities} {
			if r := rows[k]; i == 0 {
				r.Min, r.Max = v, v
			} else {
				r.Min, r.Max = min(r.Min, v), max(r.Max, v)
			}
		}
	}
	for _, r := range rows {
		if r.Min > 0 {
			r.DiffPct = 100 * float64(r.Max-r.Min) / float64(r.Min)
		}
	}
	return t
}

// WeeklyRepresentatives picks, from a date-ordered series, the first
// day present in each 7-day block counted from the series' first date —
// the paper's Monday-representative policy (§4). A removed or missing
// day moves no later week's representative, and a week with no day has
// none.
func WeeklyRepresentatives(days []DayCounts) []DayCounts {
	if len(days) == 0 {
		return nil
	}
	o := originOf(days)
	out := make([]DayCounts, 0, o.offset(days, len(days)-1)/7+1)
	week := -1
	for i := range days {
		if w := o.offset(days, i) / 7; w > week {
			out = append(out, days[i])
			week = w
		}
	}
	return out
}

// Window returns the leading days of a date-ordered series that fall
// within its first n calendar days.
func Window(days []DayCounts, n int) []DayCounts {
	if len(days) == 0 {
		return days
	}
	o := originOf(days)
	k := 0
	for k < len(days) && o.offset(days, k) < n {
		k++
	}
	return days[:k]
}

// origin is a non-empty series' first date, parsed once for the
// offsets of all its days.
type origin struct {
	t0 time.Time
	ok bool
}

func originOf(days []DayCounts) origin {
	t0, err := time.Parse(time.DateOnly, days[0].Date)
	return origin{t0, err == nil}
}

// offset is days[i]'s distance in calendar days from days[0]. A date
// that does not parse (days[i]'s or the first) is taken at its
// position, as in a contiguous series.
func (o origin) offset(days []DayCounts, i int) int {
	if !o.ok {
		return i
	}
	t, err := time.Parse(time.DateOnly, days[i].Date)
	if err != nil {
		return i
	}
	return int(t.Sub(o.t0) / (24 * time.Hour))
}

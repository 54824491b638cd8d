// Package report renders analysis results in the shapes the paper
// publishes them: fixed-width text tables for Tables 1–4 and CSV
// series for the figures, so each experiment's output can be compared
// row-by-row against the paper.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
	"unicode/utf8"

	"ixplight/internal/analysis"
	"ixplight/internal/asdb"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// Table1Row is one IXP line of Table 1.
type Table1Row struct {
	IXP                      string
	Location                 string
	AvgTraffic               string
	Members                  int
	MembersRSv4, MembersRSv6 int
	PrefixesV4, PrefixesV6   int
	RoutesV4, RoutesV6       int
}

// Table1RowFromSnapshot derives the measured columns from a snapshot.
func Table1RowFromSnapshot(s *collector.Snapshot, location, traffic string, totalMembers int) Table1Row {
	c4 := analysis.CountSnapshot(s, false)
	c6 := analysis.CountSnapshot(s, true)
	return Table1Row{
		IXP: s.IXP, Location: location, AvgTraffic: traffic, Members: totalMembers,
		MembersRSv4: c4.Members, MembersRSv6: c6.Members,
		PrefixesV4: c4.Prefixes, PrefixesV6: c6.Prefixes,
		RoutesV4: c4.Routes, RoutesV6: c6.Routes,
	}
}

// WriteTable1 renders Table 1.
func WriteTable1(w io.Writer, rows []Table1Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "IXP\tLocation\tTraffic\tMembers\tRS v4\tRS v6\tPrefixes v4\tPrefixes v6\tRoutes v4\tRoutes v6")
	var b []byte
	for _, r := range rows {
		b = append(append(append(b, r.IXP...), '\t'), r.Location...)
		b = append(append(b, '\t'), r.AvgTraffic...)
		for _, n := range [...]int{r.Members, r.MembersRSv4, r.MembersRSv6, r.PrefixesV4, r.PrefixesV6, r.RoutesV4, r.RoutesV6} {
			b = strconv.AppendInt(append(b, '\t'), int64(n), 10)
		}
		b = append(b, '\n')
	}
	tw.Write(b)
	tw.Flush()
}

// WriteFig1 renders the Fig. 1 series (IXP-defined vs unknown shares).
func WriteFig1(w io.Writer, ixp string, v4, v6 analysis.Mix) {
	fmt.Fprintf(w, "figure1,%s,IPv4,total=%d,defined=%.1f%%,unknown=%.1f%%\n",
		ixp, v4.Total(), 100*v4.DefinedShare(), 100*(1-v4.DefinedShare()))
	fmt.Fprintf(w, "figure1,%s,IPv6,total=%d,defined=%.1f%%,unknown=%.1f%%\n",
		ixp, v6.Total(), 100*v6.DefinedShare(), 100*(1-v6.DefinedShare()))
}

// WriteFig2 renders the Fig. 2 series (standard/extended/large mix).
func WriteFig2(w io.Writer, ixp string, v4, v6 analysis.Mix) {
	fmt.Fprintf(w, "figure2,%s,IPv4,defined=%d,standard=%.1f%%,extended=%.1f%%,large=%.1f%%\n",
		ixp, v4.Defined(), 100*v4.StandardShare(), 100*v4.ExtendedShare(), 100*v4.LargeShare())
	fmt.Fprintf(w, "figure2,%s,IPv6,defined=%d,standard=%.1f%%,extended=%.1f%%,large=%.1f%%\n",
		ixp, v6.Defined(), 100*v6.StandardShare(), 100*v6.ExtendedShare(), 100*v6.LargeShare())
}

// WriteFig3 renders the Fig. 3 series (action vs informational).
func WriteFig3(w io.Writer, ixp string, family string, action, info int) {
	total := action + info
	if total == 0 {
		fmt.Fprintf(w, "figure3,%s,%s,empty\n", ixp, family)
		return
	}
	fmt.Fprintf(w, "figure3,%s,%s,standard_defined=%d,action=%.1f%%,informational=%.1f%%\n",
		ixp, family, total, 100*float64(action)/float64(total), 100*float64(info)/float64(total))
}

// WriteFig4a renders the Fig. 4a bars.
func WriteFig4a(w io.Writer, ixp, family string, u analysis.Usage) {
	fmt.Fprintf(w, "figure4a,%s,%s,ases=%d (%.1f%% of %d),routes_tagged=%d (%.1f%%),action_instances=%d\n",
		ixp, family, u.ASesUsing, 100*u.ASShare(), u.MembersAtRS,
		u.RoutesTagged, 100*u.RouteShare(), u.ActionInstances)
}

// WriteFig4b renders selected Fig. 4b CDF points.
func WriteFig4b(w io.Writer, ixp string, cdf []analysis.CDFPoint) {
	for _, frac := range []float64{0.01, 0.05, 0.10, 0.50, 1.0} {
		fmt.Fprintf(w, "figure4b,%s,top %.0f%% of ASes,%.1f%% of action communities\n",
			ixp, frac*100, 100*analysis.TopShare(cdf, frac))
	}
}

// WriteFig4c renders the Fig. 4c scatter as CSV.
func WriteFig4c(w io.Writer, ixp string, points []analysis.CorrelationPoint) {
	fmt.Fprintf(w, "figure4c,%s,asn,route_fraction,community_fraction\n", ixp)
	for _, p := range points {
		fmt.Fprintf(w, "figure4c,%s,%d,%.6f,%.6f\n", ixp, p.ASN, p.RouteFrac, p.CommFrac)
	}
}

// WriteTable2 renders one IXP's Table 2 columns.
func WriteTable2(w io.Writer, ixp, family string, rows []analysis.TypeUsage) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Table 2 — %s (%s)\n", ixp, family)
	var b []byte
	for _, r := range rows {
		b = strconv.AppendInt(append(append(b, r.Type.String()...), '\t'), int64(r.ASes), 10)
		b = append(appendPct(append(b, "\t("...), r.Share), ")\n"...)
	}
	tw.Write(b)
	tw.Flush()
}

// WriteSec53 renders the §5.3 occurrence-per-type shares.
func WriteSec53(w io.Writer, ixp, family string, occ map[dictionary.ActionType]int) {
	total := 0
	for _, n := range occ {
		total += n
	}
	fmt.Fprintf(w, "sec5.3,%s,%s,total=%d", ixp, family, total)
	for _, t := range dictionary.ActionTypes {
		share := 0.0
		if total > 0 {
			share = float64(occ[t]) / float64(total)
		}
		fmt.Fprintf(w, ",%s=%.1f%%", t, 100*share)
	}
	fmt.Fprintln(w)
}

// The ranking writers below build their rows by appending into one
// buffer and write it once: a row formatted through fmt boxes every
// argument, and these are the rows a cold /v1/experiments request
// prints most of.

// padTo pads b with spaces until what was appended after start is
// width columns wide, as %-*s does (fmt pads by runes, and the target
// arrow is not ASCII).
func padTo(b []byte, start, width int) []byte {
	for n := utf8.RuneCount(b[start:]); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

// appendRight appends n right-aligned in width columns, as %*d does.
func appendRight(b []byte, n, width int) []byte {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(n), 10)
	for i := len(digits); i < width; i++ {
		b = append(b, ' ')
	}
	return append(b, digits...)
}

// appendPct appends a share as %.1f%% of 100×share does.
func appendPct(b []byte, share float64) []byte {
	return append(strconv.AppendFloat(b, 100*share, 'f', 1, 64), '%')
}

// appendASName appends what reg.Name(asn) returns ("ASxxxx" when the
// AS is unregistered, or there is no registry).
func appendASName(b []byte, reg *asdb.Registry, asn uint32) []byte {
	if reg != nil {
		if a, ok := reg.Lookup(asn); ok {
			return append(b, a.Name...)
		}
	}
	return strconv.AppendUint(append(b, "AS"...), uint64(asn), 10)
}

// WriteTopCommunities renders a Fig. 5/6 ranking with AS names.
func WriteTopCommunities(w io.Writer, title, ixp string, top []analysis.CommunityCount, reg *asdb.Registry) {
	b := make([]byte, 0, 96*(len(top)+1))
	b = append(append(append(append(b, title...), " — "...), ixp...), '\n')
	for i, cc := range top {
		b = append(appendRight(b, i+1, 2), ". "...)
		b = append(padTo(cc.Community.AppendTo(b), len(b), 14), ' ')
		b = append(padTo(append(b, cc.Class.Action.String()...), len(b), 20), ' ')
		b = append(padTo(appendTarget(b, cc.Class, reg), len(b), 28), ' ')
		b = append(strconv.AppendInt(b, int64(cc.Count), 10), '\n')
	}
	w.Write(b)
}

// appendTarget appends the "→ whom" column of a ranking row.
func appendTarget(b []byte, cl dictionary.Class, reg *asdb.Registry) []byte {
	switch cl.Target {
	case dictionary.TargetAll:
		return append(b, "→ all peers"...)
	case dictionary.TargetPeer:
		return appendASName(append(b, "→ "...), reg, cl.TargetASN)
	default:
		return b
	}
}

// WriteCulprits renders the Fig. 7 ranking.
func WriteCulprits(w io.Writer, ixp string, culprits []analysis.Culprit, total int, reg *asdb.Registry) {
	b := make([]byte, 0, 64*(len(culprits)+2))
	b = append(append(append(b, "Figure 7 — "...), ixp...), " (total non-member-targeting instances: "...)
	b = append(strconv.AppendInt(b, int64(total), 10), ")\n"...)
	for i, c := range culprits {
		share := 0.0
		if total > 0 {
			share = float64(c.Count) / float64(total)
		}
		b = append(appendRight(b, i+1, 2), ". "...)
		b = append(padTo(appendASName(b, reg, c.ASN), len(b), 24), ' ')
		b = append(appendRight(b, c.Count, 8), " ("...)
		b = append(appendPct(b, share), ")\n"...)
	}
	w.Write(b)
}

// WriteStability renders one Table 3/4 row.
func WriteStability(w io.Writer, label string, t analysis.StabilityTable) {
	fmt.Fprintf(w, "%-16s members %d–%d (%.2f%%)  prefixes %d–%d (%.2f%%)  routes %d–%d (%.2f%%)  communities %d–%d (%.2f%%)\n",
		label,
		t.Members.Min, t.Members.Max, t.Members.DiffPct,
		t.Prefixes.Min, t.Prefixes.Max, t.Prefixes.DiffPct,
		t.Routes.Min, t.Routes.Max, t.Routes.DiffPct,
		t.Communities.Min, t.Communities.Max, t.Communities.DiffPct)
}

// Section prints a visually separated heading.
func Section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

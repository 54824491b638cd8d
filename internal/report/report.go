// Package report renders analysis results in the shapes the paper
// publishes them: fixed-width text tables for Tables 1–4 and CSV
// series for the figures, so each experiment's output can be compared
// row-by-row against the paper.
package report

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"

	"ixplight/internal/analysis"
	"ixplight/internal/asdb"
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

// Table1RowFromCounts derives the measured columns from an IXP's day.
func Table1RowFromCounts(ixp string, c analysis.DayCounts, location, traffic string, totalMembers int) Table1Row {
	return Table1Row{
		IXP: ixp, Location: location, AvgTraffic: traffic, Members: totalMembers,
		MembersRSv4: c.V4.Members, MembersRSv6: c.V6.Members,
		PrefixesV4: c.V4.Prefixes, PrefixesV6: c.V6.Prefixes,
		RoutesV4: c.V4.Routes, RoutesV6: c.V6.Routes,
	}
}

// Every writer below appends its rows to b and returns the extended
// slice, as strconv's Append functions do: an experiment's whole output
// is one []byte, grown in place, with no fmt verb, interface boxing or
// tabwriter between a number and its bytes.

// appendKey appends a series row's leading columns: the series, the
// IXP and the address family.
func appendKey(b []byte, series, ixp, family string) []byte {
	return append(append(append(append(append(b, series...), ','), ixp...), ','), family...)
}

// AppendTable1 renders Table 1.
func AppendTable1(b []byte, rows []Table1Row) []byte {
	start := len(b)
	b = append(b, "IXP\tLocation\tTraffic\tMembers\tRS v4\tRS v6\tPrefixes v4\tPrefixes v6\tRoutes v4\tRoutes v6\n"...)
	for _, r := range rows {
		b = append(append(append(b, r.IXP...), '\t'), r.Location...)
		b = append(append(b, '\t'), r.AvgTraffic...)
		for _, n := range [...]int{r.Members, r.MembersRSv4, r.MembersRSv6, r.PrefixesV4, r.PrefixesV6, r.RoutesV4, r.RoutesV6} {
			b = strconv.AppendInt(append(b, '\t'), int64(n), 10)
		}
		b = append(b, '\n')
	}
	return alignColumns(b, start)
}

// AppendFig1 renders the Fig. 1 series (IXP-defined vs unknown shares).
func AppendFig1(b []byte, ixp string, v4, v6 analysis.Mix) []byte {
	for _, f := range [...]struct {
		name string
		mix  analysis.Mix
	}{{"IPv4", v4}, {"IPv6", v6}} {
		b = appendKey(b, "figure1", ixp, f.name)
		b = append(strconv.AppendInt(append(b, ",total="...), int64(f.mix.Total()), 10), ",defined="...)
		b = append(appendPct(b, f.mix.DefinedShare()), ",unknown="...)
		b = append(appendPct(b, 1-f.mix.DefinedShare()), '\n')
	}
	return b
}

// AppendFig2 renders the Fig. 2 series (standard/extended/large mix).
func AppendFig2(b []byte, ixp string, v4, v6 analysis.Mix) []byte {
	for _, f := range [...]struct {
		name string
		mix  analysis.Mix
	}{{"IPv4", v4}, {"IPv6", v6}} {
		b = appendKey(b, "figure2", ixp, f.name)
		b = append(strconv.AppendInt(append(b, ",defined="...), int64(f.mix.Defined()), 10), ",standard="...)
		b = append(appendPct(b, f.mix.StandardShare()), ",extended="...)
		b = append(appendPct(b, f.mix.ExtendedShare()), ",large="...)
		b = append(appendPct(b, f.mix.LargeShare()), '\n')
	}
	return b
}

// AppendFig3 renders the Fig. 3 series (action vs informational).
func AppendFig3(b []byte, ixp string, family string, action, info int) []byte {
	b = appendKey(b, "figure3", ixp, family)
	total := action + info
	if total == 0 {
		return append(b, ",empty\n"...)
	}
	b = append(strconv.AppendInt(append(b, ",standard_defined="...), int64(total), 10), ",action="...)
	b = append(appendFixed(b, 100*float64(action)/float64(total), 1), "%,informational="...)
	return append(appendFixed(b, 100*float64(info)/float64(total), 1), "%\n"...)
}

// AppendFig4a renders the Fig. 4a bars.
func AppendFig4a(b []byte, ixp, family string, u analysis.Usage) []byte {
	b = appendKey(b, "figure4a", ixp, family)
	b = append(strconv.AppendInt(append(b, ",ases="...), int64(u.ASesUsing), 10), " ("...)
	b = append(appendPct(b, u.ASShare()), " of "...)
	b = append(strconv.AppendInt(b, int64(u.MembersAtRS), 10), "),routes_tagged="...)
	b = append(strconv.AppendInt(b, int64(u.RoutesTagged), 10), " ("...)
	b = append(appendPct(b, u.RouteShare()), "),action_instances="...)
	return append(strconv.AppendInt(b, int64(u.ActionInstances), 10), '\n')
}

// AppendFig4b renders selected Fig. 4b CDF points.
func AppendFig4b(b []byte, ixp string, cdf []analysis.CDFPoint) []byte {
	for _, frac := range [...]float64{0.01, 0.05, 0.10, 0.50, 1.0} {
		b = append(append(append(b, "figure4b,"...), ixp...), ",top "...)
		b = append(appendFixed(b, frac*100, 0), "% of ASes,"...)
		b = append(appendPct(b, analysis.TopShare(cdf, frac)), " of action communities\n"...)
	}
	return b
}

// AppendFig4c renders the Fig. 4c scatter as CSV.
func AppendFig4c(b []byte, ixp string, points []analysis.CorrelationPoint) []byte {
	b = append(append(append(b, "figure4c,"...), ixp...), ",asn,route_fraction,community_fraction\n"...)
	for _, p := range points {
		b = append(append(append(b, "figure4c,"...), ixp...), ',')
		b = append(strconv.AppendUint(b, uint64(p.ASN), 10), ',')
		b = append(appendFixed(b, p.RouteFrac, 6), ',')
		b = append(appendFixed(b, p.CommFrac, 6), '\n')
	}
	return b
}

// AppendTable2 renders one IXP's Table 2 columns.
func AppendTable2(b []byte, ixp, family string, rows []analysis.TypeUsage) []byte {
	b = append(append(append(append(append(b, "Table 2 — "...), ixp...), " ("...), family...), ")\n"...)
	start := len(b)
	for _, r := range rows {
		b = strconv.AppendInt(append(append(b, r.Type.String()...), '\t'), int64(r.ASes), 10)
		b = append(appendPct(append(b, "\t("...), r.Share), ")\n"...)
	}
	return alignColumns(b, start)
}

// AppendSec53 renders the §5.3 occurrence-per-type shares.
func AppendSec53(b []byte, ixp, family string, occ map[dictionary.ActionType]int) []byte {
	total := 0
	for _, n := range occ {
		total += n
	}
	b = appendKey(b, "sec5.3", ixp, family)
	b = strconv.AppendInt(append(b, ",total="...), int64(total), 10)
	for _, t := range dictionary.ActionTypes {
		share := 0.0
		if total > 0 {
			share = float64(occ[t]) / float64(total)
		}
		b = appendPct(append(append(append(b, ','), t.String()...), '='), share)
	}
	return append(b, '\n')
}

// alignColumns lays out the newline-terminated, tab-separated lines
// appended to b since start as tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
// does for a block whose lines hold equally many cells: every cell but
// a line's last is padded with spaces to its column's width, the
// column's widest cell in runes plus 2 (and at least 2, the minimum
// width). The laid-out lines are built after the raw ones and moved
// down over them.
func alignColumns(b []byte, start int) []byte {
	var onStack [16]int
	widths := onStack[:0]
	for rest := b[start:]; len(rest) > 0; {
		nl := bytes.IndexByte(rest, '\n')
		line := rest[:nl]
		rest = rest[nl+1:]
		for col := 0; ; col++ {
			tab := bytes.IndexByte(line, '\t')
			if tab < 0 {
				break
			}
			if col == len(widths) {
				widths = append(widths, 2)
			}
			widths[col] = max(widths[col], utf8.RuneCount(line[:tab])+2)
			line = line[tab+1:]
		}
	}
	end := len(b)
	for i := start; i < end; i++ {
		col, cell := 0, i
		for ; b[i] != '\n'; i++ {
			if b[i] == '\t' {
				b = padTo(append(b, b[cell:i]...), len(b), widths[col])
				col, cell = col+1, i+1
			}
		}
		b = append(b, b[cell:i+1]...)
	}
	return append(b[:start], b[end:]...)
}

// padTo pads b with spaces until what was appended after start is
// width columns wide, as %-*s does (fmt pads by runes, and the target
// arrow is not ASCII).
func padTo(b []byte, start, width int) []byte {
	for n := utf8.RuneCount(b[start:]); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

// alignRight right-aligns what was appended to b after start in width
// columns, as %*d and %*.*f do: ASCII digits, so a byte is a column.
func alignRight(b []byte, start, width int) []byte {
	n := len(b) - start
	if n >= width {
		return b
	}
	for range width - n {
		b = append(b, ' ')
	}
	copy(b[start+width-n:], b[start:start+n])
	for i := start; i < start+width-n; i++ {
		b[i] = ' '
	}
	return b
}

// appendRight appends n right-aligned in width columns, as %*d does.
func appendRight(b []byte, n, width int) []byte {
	return alignRight(strconv.AppendInt(b, int64(n), 10), len(b), width)
}

// appendPct appends a share as %.1f%% of 100×share does.
func appendPct(b []byte, share float64) []byte {
	return append(appendFixed(b, 100*share, 1), '%')
}

// pow10 holds 10^prec for the precisions appendFixed takes.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// appendFixed appends v with prec (0–6) decimals, byte for byte what
// strconv.AppendFloat(b, v, 'f', prec, 64) — and so %.*f — writes.
// strconv has no fast path for a fixed precision in 'f' format, so it
// takes its arbitrary-precision route for every such call; here v is
// scaled by 10^prec and rounded to an integer instead. The product
// carries a relative error of at most 2^-53, so its rounding can differ
// from the exact decimal's only within that distance of a .5 tie: a
// value within 1e-9·|s| of one, a NaN, an infinity or a magnitude of
// 2^52 or more (where a float has no fraction bits left) is left to
// strconv, which rounds exact ties to even. FuzzAppendFixed holds the
// two together.
func appendFixed(b []byte, v float64, prec int) []byte {
	s := math.Abs(v) * pow10[prec]
	if !(s < 1<<52) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	n := math.Floor(s)
	switch f := s - n; {
	case math.Abs(f-0.5) <= 1e-9*s:
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	case f > 0.5:
		n++
	}
	if math.Signbit(v) {
		b = append(b, '-')
	}
	u := uint64(n)
	if prec == 0 {
		return strconv.AppendUint(b, u, 10)
	}
	scale := uint64(pow10[prec])
	b = append(strconv.AppendUint(b, u/scale, 10), '.')
	var frac [6]byte
	for i, r := prec-1, u%scale; i >= 0; i, r = i-1, r/10 {
		frac[i] = byte('0' + r%10)
	}
	return append(b, frac[:prec]...)
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

// AppendTopCommunities renders a Fig. 5/6 ranking with AS names.
func AppendTopCommunities(b []byte, title, ixp string, top []analysis.CommunityCount, reg *asdb.Registry) []byte {
	b = append(append(append(append(b, title...), " — "...), ixp...), '\n')
	for i, cc := range top {
		b = append(appendRight(b, i+1, 2), ". "...)
		b = append(padTo(cc.Community.AppendTo(b), len(b), 14), ' ')
		b = append(padTo(append(b, cc.Class.Action.String()...), len(b), 20), ' ')
		b = append(padTo(appendTarget(b, cc.Class, reg), len(b), 28), ' ')
		b = append(strconv.AppendInt(b, int64(cc.Count), 10), '\n')
	}
	return b
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

// AppendCulprits renders the Fig. 7 ranking.
func AppendCulprits(b []byte, ixp string, culprits []analysis.Culprit, total int, reg *asdb.Registry) []byte {
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
	return b
}

// AppendStability renders one Table 3/4 row.
func AppendStability(b []byte, label string, t analysis.StabilityTable) []byte {
	b = padTo(append(b, label...), len(b), 16)
	for _, q := range [...]struct {
		name string
		row  analysis.StabilityRow
	}{{" members ", t.Members}, {"  prefixes ", t.Prefixes}, {"  routes ", t.Routes}, {"  communities ", t.Communities}} {
		b = strconv.AppendInt(append(b, q.name...), int64(q.row.Min), 10)
		b = strconv.AppendInt(append(b, "–"...), int64(q.row.Max), 10)
		b = append(appendFixed(append(b, " ("...), q.row.DiffPct, 2), "%)"...)
	}
	return append(b, '\n')
}

// AppendSection appends a visually separated heading.
func AppendSection(b []byte, title string) []byte {
	b = append(append(append(b, '\n'), title...), '\n')
	for range len(title) {
		b = append(b, '=')
	}
	return append(b, '\n')
}

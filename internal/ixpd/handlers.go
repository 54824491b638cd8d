package ixpd

import (
	"slices"
	"strconv"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/report"
)

// The response documents. Every endpoint returns one of these,
// rendered once and cached pre-encoded; shapes are additive-stable
// so clients can pin fields. The structs define the wire shape — what
// json.Marshal makes of them — and render.go renders each by hand.

// MetaDoc describes the serving dataset.
type MetaDoc struct {
	Digest      string    `json:"digest"`
	Generation  uint64    `json:"generation"`
	Source      string    `json:"source"` // "dir": a daemon serves a dataset directory
	Experiments []string  `json:"experiments"`
	IXPs        []MetaIXP `json:"ixps"`
	// Skipped lists the dataset files this generation could not load;
	// their chains serve up to the last good day.
	Skipped []SkippedFile `json:"skipped,omitempty"`
}

// SkippedFile is one unusable dataset file and why.
type SkippedFile struct {
	File   string `json:"file"`
	Reason string `json:"reason"`
}

// MetaIXP is one IXP's slice of the dataset, including small query
// samples so load generators and curl users can form valid per-AS and
// per-community lookups without guessing. First and Latest are the
// first and the served day; Tip is the hex sha256 of the file the served
// day came from (a delta's seal, which names its whole chain). Partial
// and MemberErrors come from the served day's header: a crawl that
// could not fetch every neighbour's routes (collect -partial) is
// flagged, with the number of neighbours it lost.
type MetaIXP struct {
	IXP               string   `json:"ixp"`
	Days              int      `json:"days"`
	First             string   `json:"first"`
	Latest            string   `json:"latest"`
	Tip               string   `json:"tip"`
	Partial           bool     `json:"partial,omitempty"`
	MemberErrors      int      `json:"member_errors,omitempty"`
	MembersV4         int      `json:"members_v4"`
	MembersV6         int      `json:"members_v6"`
	RoutesV4          int      `json:"routes_v4"`
	RoutesV6          int      `json:"routes_v6"`
	SampleASNs        []uint32 `json:"sample_asns"`
	SampleCommunities []string `json:"sample_communities"`
}

// ExperimentDoc is one experiment's paper-shaped output. It is
// rendered straight from the experiment's text (appendExperimentDoc),
// never built.
type ExperimentDoc struct {
	Experiment string `json:"experiment"`
	Digest     string `json:"digest"`
	Output     string `json:"output"`
}

// ASDoc is the per-AS lookup across the dataset's IXPs.
type ASDoc struct {
	ASN  uint32    `json:"asn"`
	IXPs []ASAtIXP `json:"ixps"`
}

// ASAtIXP is one IXP's view of an AS, from the latest snapshot.
type ASAtIXP struct {
	IXP    string              `json:"ixp"`
	Member bool                `json:"member"`
	V4     analysis.ASActivity `json:"v4"`
	V6     analysis.ASActivity `json:"v6"`
}

// CommunityDoc is the per-community lookup across IXPs.
type CommunityDoc struct {
	Community string           `json:"community"`
	IXPs      []CommunityAtIXP `json:"ixps"`
}

// CommunityAtIXP is one IXP's classification and usage of a standard
// community value.
type CommunityAtIXP struct {
	IXP    string                  `json:"ixp"`
	Known  bool                    `json:"known"`
	Action string                  `json:"action,omitempty"`
	Target string                  `json:"target,omitempty"`
	V4     analysis.CommunityUsage `json:"v4"`
	V6     analysis.CommunityUsage `json:"v6"`
}

// SeriesDoc is one IXP's per-day time series.
type SeriesDoc struct {
	IXP  string      `json:"ixp"`
	Days []SeriesDay `json:"days"`
}

// SeriesDay is one collection day's Appendix-A-style counts.
type SeriesDay struct {
	Date string       `json:"date"`
	V4   FamilyCounts `json:"v4"`
	V6   FamilyCounts `json:"v6"`
}

// FamilyCounts is one address family's Appendix A row.
type FamilyCounts struct {
	Members     int `json:"members"`
	Prefixes    int `json:"prefixes"`
	Routes      int `json:"routes"`
	Communities int `json:"communities"`
}

func familyCounts(c analysis.SnapshotCounts) FamilyCounts {
	return FamilyCounts{Members: c.Members, Prefixes: c.Prefixes, Routes: c.Routes, Communities: c.Communities}
}

// --- computes -----------------------------------------------------------

const sampleCap = 8

func (s *Server) metaDoc(g *generation) MetaDoc {
	doc := MetaDoc{
		Digest:      g.digest,
		Generation:  g.id,
		Source:      "dir",
		Experiments: report.ExperimentNames,
	}
	for p, ix := range g.lab.Studied() {
		snap := ix.Snapshot()
		series := g.lab.Series[p.IXP]
		mi := MetaIXP{
			IXP:          p.IXP,
			Days:         len(series),
			First:        series[0].Date,
			Latest:       snap.Date,
			Tip:          g.lab.Tip(p.IXP),
			Partial:      snap.Partial,
			MemberErrors: len(snap.MemberErrors),
			MembersV4:    snap.MembersV4(),
			MembersV6:    snap.MembersV6(),
			RoutesV4:     ix.Counts(false).Routes,
			RoutesV6:     ix.Counts(true).Routes,
		}
		for _, m := range snap.Members[:min(len(snap.Members), sampleCap)] {
			mi.SampleASNs = append(mi.SampleASNs, m.ASN)
		}
		for _, cc := range ix.TopActionCommunities(false, sampleCap) {
			mi.SampleCommunities = append(mi.SampleCommunities, cc.Community.String())
		}
		doc.IXPs = append(doc.IXPs, mi)
	}
	for i := range g.load.Skipped {
		sk := &g.load.Skipped[i]
		doc.Skipped = append(doc.Skipped, SkippedFile{File: sk.File, Reason: sk.Op + ": " + sk.Err.Error()})
	}
	return doc
}

// experimentBody renders the ExperimentDoc of experiment name: the
// experiment appends its text into a pooled buffer, and the body quotes
// that buffer as its output string.
func (s *Server) experimentBody(g *generation, name string) ([]byte, error) {
	if !slices.Contains(report.ExperimentNames, name) {
		return nil, errNotFound("unknown experiment %q", name)
	}
	p := renderPool.Get().(*[]byte)
	defer renderPool.Put(p)
	text, err := g.lab.AppendRun((*p)[:0], name)
	*p = text[:0]
	if err != nil {
		return nil, err
	}
	return render(func(b []byte) []byte { return appendExperimentDoc(b, name, g.digest, text) }), nil
}

func (s *Server) asDoc(g *generation, asnStr, ixp string) (ASDoc, error) {
	asn64, err := strconv.ParseUint(asnStr, 10, 32)
	if err != nil {
		return ASDoc{}, errBadRequest("bad ASN %q", asnStr)
	}
	asn := uint32(asn64)
	rows, err := perIXP(g.lab, ixp, func(ixp string, ix *analysis.Index) ASAtIXP {
		return ASAtIXP{
			IXP:    ixp,
			Member: ix.IsMember(asn),
			V4:     ix.ASActivity(asn, false),
			V6:     ix.ASActivity(asn, true),
		}
	})
	return ASDoc{ASN: asn, IXPs: rows}, err
}

func (s *Server) communityDoc(g *generation, commStr, ixp string) (CommunityDoc, error) {
	comm, err := bgp.ParseCommunity(commStr)
	if err != nil {
		return CommunityDoc{}, errBadRequest("bad community %q", commStr)
	}
	rows, err := perIXP(g.lab, ixp, func(ixp string, ix *analysis.Index) CommunityAtIXP {
		u4 := ix.CommunityUsage(comm, false)
		u6 := ix.CommunityUsage(comm, true)
		at := CommunityAtIXP{IXP: ixp, Known: u4.Class.Known, V4: u4, V6: u6}
		if at.Known {
			at.Action = u4.Class.Action.String()
			switch u4.Class.Target {
			case dictionary.TargetAll:
				at.Target = "all"
			case dictionary.TargetPeer:
				at.Target = "AS" + strconv.FormatUint(uint64(u4.Class.TargetASN), 10)
			}
		}
		return at
	})
	if err != nil {
		return CommunityDoc{}, err
	}
	return CommunityDoc{Community: comm.String(), IXPs: rows}, nil
}

func (s *Server) seriesDoc(g *generation, ixp string) (SeriesDoc, error) {
	if g.lab.Indexes[ixp] == nil {
		return SeriesDoc{}, errUnknownIXP(ixp)
	}
	series := g.lab.Series[ixp]
	doc := SeriesDoc{IXP: ixp, Days: make([]SeriesDay, 0, len(series))}
	for i := range series {
		d := &series[i]
		doc.Days = append(doc.Days, SeriesDay{Date: d.Date, V4: familyCounts(d.V4), V6: familyCounts(d.V6)})
	}
	return doc, nil
}

// perIXP builds a lookup's per-IXP rows: the row of the IXP its ?ixp=
// names, or, without one, a row per studied IXP in Table 1 order.
func perIXP[Row any](lab *report.Lab, ixp string, row func(ixp string, ix *analysis.Index) Row) ([]Row, error) {
	if ixp != "" {
		ix := lab.Indexes[ixp]
		if ix == nil {
			return nil, errUnknownIXP(ixp)
		}
		return []Row{row(ixp, ix)}, nil
	}
	var rows []Row // nil, rendered null, when the lab studies no IXP
	if n := len(lab.Indexes); n > 0 {
		rows = make([]Row, 0, n)
	}
	for p, ix := range lab.Studied() {
		rows = append(rows, row(p.IXP, ix))
	}
	return rows, nil
}

// errUnknownIXP is what every endpoint answers a request naming an IXP
// the dataset holds no day of: one 404, whatever the endpoint.
func errUnknownIXP(ixp string) error { return errNotFound("unknown IXP %q", ixp) }

package ixpd

import (
	"bytes"
	"slices"
	"strconv"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
	"ixplight/internal/report"
)

// The response documents. Every endpoint returns one of these,
// marshaled once and cached pre-encoded; shapes are additive-stable
// so clients can pin fields.

// MetaDoc describes the serving dataset.
type MetaDoc struct {
	Digest      string    `json:"digest"`
	Generation  uint64    `json:"generation"`
	LoadedAt    time.Time `json:"loaded_at"`
	Source      string    `json:"source"` // "dir" or "synthetic"
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
// per-community lookups without guessing.
type MetaIXP struct {
	IXP               string   `json:"ixp"`
	Days              int      `json:"days"`
	Latest            string   `json:"latest"`
	MembersV4         int      `json:"members_v4"`
	MembersV6         int      `json:"members_v6"`
	RoutesV4          int      `json:"routes_v4"`
	RoutesV6          int      `json:"routes_v6"`
	SampleASNs        []uint32 `json:"sample_asns"`
	SampleCommunities []string `json:"sample_communities"`
}

// ExperimentDoc is one experiment's paper-shaped output.
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

func (s *Server) metaDoc(g *generation) (any, error) {
	doc := &MetaDoc{
		Digest:      g.digest,
		Generation:  g.id,
		LoadedAt:    g.loadedAt.UTC().Truncate(time.Second),
		Source:      "synthetic",
		Experiments: report.ExperimentNames,
	}
	if s.cfg.SnapshotDir != "" {
		doc.Source = "dir"
	}
	for _, p := range g.lab.Profiles {
		ix := g.lab.Indexes[p.IXP]
		if ix == nil {
			continue
		}
		snap := ix.Snapshot()
		mi := MetaIXP{
			IXP:       p.IXP,
			Days:      max(1, len(g.lab.Series[p.IXP])),
			Latest:    snap.Date,
			MembersV4: snap.MembersV4(),
			MembersV6: snap.MembersV6(),
			RoutesV4:  ix.Counts(false).Routes,
			RoutesV6:  ix.Counts(true).Routes,
		}
		for _, m := range snap.Members {
			if len(mi.SampleASNs) == sampleCap {
				break
			}
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
	return doc, nil
}

func (s *Server) experimentDoc(g *generation, name string) (any, error) {
	if !slices.Contains(report.ExperimentNames, name) {
		return nil, errNotFound("unknown experiment %q", name)
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := g.lab.Run(buf, name); err != nil {
		return nil, err
	}
	return &ExperimentDoc{Experiment: name, Digest: g.digest, Output: buf.String()}, nil
}

func (s *Server) asDoc(g *generation, asnStr, ixpFilter string) (any, error) {
	asn64, err := strconv.ParseUint(asnStr, 10, 32)
	if err != nil {
		return nil, errNotFound("bad ASN %q", asnStr)
	}
	asn := uint32(asn64)
	doc := &ASDoc{ASN: asn}
	for _, p := range g.lab.Profiles {
		if ixpFilter != "" && p.IXP != ixpFilter {
			continue
		}
		ix := g.lab.Indexes[p.IXP]
		if ix == nil {
			continue
		}
		doc.IXPs = append(doc.IXPs, ASAtIXP{
			IXP:    p.IXP,
			Member: ix.IsMember(asn),
			V4:     ix.ASActivity(asn, false),
			V6:     ix.ASActivity(asn, true),
		})
	}
	if ixpFilter != "" && len(doc.IXPs) == 0 {
		return nil, errNotFound("unknown IXP %q", ixpFilter)
	}
	return doc, nil
}

func (s *Server) communityDoc(g *generation, commStr, ixpFilter string) (any, error) {
	comm, err := bgp.ParseCommunity(commStr)
	if err != nil {
		return nil, errNotFound("bad community %q", commStr)
	}
	doc := &CommunityDoc{Community: comm.String()}
	for _, p := range g.lab.Profiles {
		if ixpFilter != "" && p.IXP != ixpFilter {
			continue
		}
		ix := g.lab.Indexes[p.IXP]
		if ix == nil {
			continue
		}
		u4 := ix.CommunityUsage(comm, false)
		u6 := ix.CommunityUsage(comm, true)
		at := CommunityAtIXP{IXP: p.IXP, Known: u4.Class.Known, V4: u4, V6: u6}
		if at.Known {
			at.Action = u4.Class.Action.String()
			switch u4.Class.Target {
			case dictionary.TargetAll:
				at.Target = "all"
			case dictionary.TargetPeer:
				at.Target = "AS" + strconv.FormatUint(uint64(u4.Class.TargetASN), 10)
			}
		}
		doc.IXPs = append(doc.IXPs, at)
	}
	if ixpFilter != "" && len(doc.IXPs) == 0 {
		return nil, errNotFound("unknown IXP %q", ixpFilter)
	}
	return doc, nil
}

func (s *Server) seriesDoc(g *generation, ixp string) (any, error) {
	p := profileFor(g.lab, ixp)
	if p == nil {
		return nil, errNotFound("unknown IXP %q", ixp)
	}
	series := g.lab.Series[p.IXP]
	if len(series) == 0 {
		if ix := g.lab.Indexes[p.IXP]; ix != nil {
			series = []analysis.DayCounts{ix.DayCounts()}
		}
	}
	doc := &SeriesDoc{IXP: p.IXP, Days: make([]SeriesDay, 0, len(series))}
	for i := range series {
		d := &series[i]
		doc.Days = append(doc.Days, SeriesDay{Date: d.Date, V4: familyCounts(d.V4), V6: familyCounts(d.V6)})
	}
	return doc, nil
}

func profileFor(lab *report.Lab, ixp string) *ixpgen.Profile {
	for i := range lab.Profiles {
		if lab.Profiles[i].IXP == ixp {
			return &lab.Profiles[i]
		}
	}
	return nil
}

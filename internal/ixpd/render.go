package ixpd

import (
	"bytes"
	"strconv"
	"sync"

	"ixplight/internal/analysis"
	"ixplight/internal/jsonstr"
)

// Every /v1 body is rendered by hand: a cold request's body is appended
// field by field into a pooled buffer and copied out once at its size,
// where json.Marshal reflected over the document and, for an
// experiment, copied its text into a string first. The bytes are
// exactly what json.NewEncoder(w).Encode(doc) writes for the same
// document — TestDocsMatchEncodingJSON holds the two together over a
// lab's whole query universe — so the structs in handlers.go remain the
// definition of the wire shape and this file only its renderer. Strings
// are quoted by jsonstr, as the looking glass's routes pages are.

// renderPool recycles the buffers bodies and experiment texts are built
// in. A fresh one starts at 4 KiB, which holds most bodies: grown from
// empty by append, whose steps shrink to a quarter past 256 bytes, a
// buffer would cost twice its size in discarded steps after every GC
// that empties the pool.
var renderPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// render returns the body fill appends: the document's JSON and
// Encode's newline, in a slice of its own (the body is cached; the
// buffer it was built in goes back to the pool).
func render(fill func(b []byte) []byte) []byte {
	p := renderPool.Get().(*[]byte)
	b := append(fill((*p)[:0]), '\n')
	body := bytes.Clone(b)
	*p = b[:0]
	renderPool.Put(p)
	return body
}

// errorBody is the body of every failed request: {"error": msg}.
func errorBody(msg string) []byte {
	b := jsonstr.Append(append(make([]byte, 0, len(msg)+16), `{"error":`...), msg)
	return append(b, "}\n"...)
}

// appendArray appends a slice field's value as json.Marshal does: null
// when nil, else each element as elem appends it, in brackets.
func appendArray[T any](b []byte, xs []T, elem func(b []byte, x *T) []byte) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &xs[i])
	}
	return append(b, ']')
}

func appendString(b []byte, s *string) []byte { return jsonstr.Append(b, *s) }

// appendInt appends `,"name":n` — every document's integer fields
// follow another field.
func appendInt(b []byte, name string, n int) []byte {
	b = append(append(append(append(b, ',', '"'), name...), '"'), ':')
	return strconv.AppendInt(b, int64(n), 10)
}

func (d *MetaDoc) appendJSON(b []byte) []byte {
	b = jsonstr.Append(append(b, `{"digest":`...), d.Digest)
	b = strconv.AppendUint(append(b, `,"generation":`...), d.Generation, 10)
	b = jsonstr.Append(append(b, `,"source":`...), d.Source)
	b = appendArray(append(b, `,"experiments":`...), d.Experiments, appendString)
	b = appendArray(append(b, `,"ixps":`...), d.IXPs, appendMetaIXP)
	if len(d.Skipped) > 0 {
		b = appendArray(append(b, `,"skipped":`...), d.Skipped, func(b []byte, sk *SkippedFile) []byte {
			b = jsonstr.Append(append(b, `{"file":`...), sk.File)
			return append(jsonstr.Append(append(b, `,"reason":`...), sk.Reason), '}')
		})
	}
	return append(b, '}')
}

func appendMetaIXP(b []byte, m *MetaIXP) []byte {
	b = jsonstr.Append(append(b, `{"ixp":`...), m.IXP)
	b = appendInt(b, "days", m.Days)
	b = jsonstr.Append(append(b, `,"first":`...), m.First)
	b = jsonstr.Append(append(b, `,"latest":`...), m.Latest)
	b = jsonstr.Append(append(b, `,"tip":`...), m.Tip)
	if m.Partial {
		b = append(b, `,"partial":true`...)
	}
	if m.MemberErrors != 0 {
		b = appendInt(b, "member_errors", m.MemberErrors)
	}
	b = appendInt(b, "members_v4", m.MembersV4)
	b = appendInt(b, "members_v6", m.MembersV6)
	b = appendInt(b, "routes_v4", m.RoutesV4)
	b = appendInt(b, "routes_v6", m.RoutesV6)
	b = appendArray(append(b, `,"sample_asns":`...), m.SampleASNs, func(b []byte, asn *uint32) []byte {
		return strconv.AppendUint(b, uint64(*asn), 10)
	})
	b = appendArray(append(b, `,"sample_communities":`...), m.SampleCommunities, appendString)
	return append(b, '}')
}

// appendExperimentDoc appends ExperimentDoc{name, digest, output} with
// output still the experiment's rendered bytes.
func appendExperimentDoc(b []byte, name, digest string, output []byte) []byte {
	b = jsonstr.Append(append(b, `{"experiment":`...), name)
	b = jsonstr.Append(append(b, `,"digest":`...), digest)
	b = jsonstr.Append(append(b, `,"output":`...), output)
	return append(b, '}')
}

func (d *ASDoc) appendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"asn":`...), uint64(d.ASN), 10)
	b = appendArray(append(b, `,"ixps":`...), d.IXPs, func(b []byte, at *ASAtIXP) []byte {
		b = jsonstr.Append(append(b, `{"ixp":`...), at.IXP)
		b = strconv.AppendBool(append(b, `,"member":`...), at.Member)
		b = appendASActivity(append(b, `,"v4":`...), at.V4)
		return append(appendASActivity(append(b, `,"v6":`...), at.V6), '}')
	})
	return append(b, '}')
}

func appendASActivity(b []byte, a analysis.ASActivity) []byte {
	b = strconv.AppendInt(append(b, `{"routes":`...), int64(a.Routes), 10)
	b = appendInt(b, "action_instances", a.ActionInstances)
	b = appendInt(b, "targeted_instances", a.TargetedInstances)
	b = appendInt(b, "non_member_targeting", a.NonMemberTargeting)
	return append(b, '}')
}

func (d *CommunityDoc) appendJSON(b []byte) []byte {
	b = jsonstr.Append(append(b, `{"community":`...), d.Community)
	b = appendArray(append(b, `,"ixps":`...), d.IXPs, func(b []byte, at *CommunityAtIXP) []byte {
		b = jsonstr.Append(append(b, `{"ixp":`...), at.IXP)
		b = strconv.AppendBool(append(b, `,"known":`...), at.Known)
		if at.Action != "" {
			b = jsonstr.Append(append(b, `,"action":`...), at.Action)
		}
		if at.Target != "" {
			b = jsonstr.Append(append(b, `,"target":`...), at.Target)
		}
		b = appendCommunityUsage(append(b, `,"v4":`...), at.V4)
		return append(appendCommunityUsage(append(b, `,"v6":`...), at.V6), '}')
	})
	return append(b, '}')
}

func appendCommunityUsage(b []byte, u analysis.CommunityUsage) []byte {
	b = strconv.AppendInt(append(b, `{"action_instances":`...), int64(u.ActionInstances), 10)
	b = appendInt(b, "non_member_instances", u.NonMemberInstances)
	return append(b, '}')
}

func (d *SeriesDoc) appendJSON(b []byte) []byte {
	b = jsonstr.Append(append(b, `{"ixp":`...), d.IXP)
	b = appendArray(append(b, `,"days":`...), d.Days, func(b []byte, day *SeriesDay) []byte {
		b = jsonstr.Append(append(b, `{"date":`...), day.Date)
		b = appendFamilyCounts(append(b, `,"v4":`...), day.V4)
		return append(appendFamilyCounts(append(b, `,"v6":`...), day.V6), '}')
	})
	return append(b, '}')
}

func appendFamilyCounts(b []byte, c FamilyCounts) []byte {
	b = strconv.AppendInt(append(b, `{"members":`...), int64(c.Members), 10)
	b = appendInt(b, "prefixes", c.Prefixes)
	b = appendInt(b, "routes", c.Routes)
	b = appendInt(b, "communities", c.Communities)
	return append(b, '}')
}

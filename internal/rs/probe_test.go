package rs

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
)

// The probe is the in-process form of the active measurement Krenc et
// al. run on the live Internet: announce a prefix tagged with one
// community value, watch which members receive it, with what AS path
// and with which tags left on it, and read the value's meaning off that
// routing effect alone. TestProbeReconstructsDictionary holds the
// meaning read for every value a scheme defines to the meaning its
// dictionary entry (or its extended/large builder) states.

const (
	probeAnnouncer  = 64000  // announces every probe; no scheme targets it
	probeWideMember = 270000 // a 32-bit member, reachable by large communities only
	probeWideAbsent = 270001 // a 32-bit ASN that is not a member
)

// effect is the meaning of a community value as routing shows it. An
// action's target is a member ASN, or 0 for every member; noop is an
// action that changes nothing here (a non-member target, or "announce
// to all", which restores the default).
type effect struct {
	action  dictionary.ActionType
	target  uint32
	prepend int
	noop    bool
}

// unexplained is an effect no community value asks for.
var unexplained = effect{action: -1}

func (e effect) String() string {
	target := "every member"
	if e.target != 0 {
		target = fmt.Sprintf("AS%d", e.target)
	}
	switch {
	case e.noop:
		return "no-op"
	case e == unexplained:
		return "an unexplained effect"
	case e.action == dictionary.PrependTo:
		return fmt.Sprintf("%v %dx to %s", e.action, e.prepend, target)
	case e.action == dictionary.DoNotAnnounceTo || e.action == dictionary.AnnounceOnlyTo:
		return fmt.Sprintf("%v %s", e.action, target)
	default:
		return e.action.String()
	}
}

// probe is one value under test: tags holds it (only the community
// lists are read), want is its stated meaning.
type probe struct {
	name string
	tags bgp.Route
	want effect
}

// sighting is what the members saw of one announcement: the AS-path
// length each receiver got, and whether the probed value was still on
// the route at any of them.
type sighting struct {
	pathLen map[uint32]int
	kept    bool
}

// observation collects a probe's three announcements: the value alone
// on a /24, the value next to "do not announce to any peer" on a /24,
// and the value alone on a /32 host route, which import accepts only as
// a blackhole request.
type observation struct {
	plain, blocked, host sighting
}

// infer reads a value's meaning from what members saw, without looking
// at the value. members excludes the announcer.
func infer(o observation, members []uint32) effect {
	if len(o.host.pathLen) > 0 {
		// A blackhole request reaches the members with its marker on.
		if !o.host.kept {
			return unexplained
		}
		return effect{action: dictionary.Blackhole}
	}
	if o.plain.kept {
		return effect{action: dictionary.Informational}
	}
	var missing, longer []uint32
	prepend := 0
	for _, m := range members {
		n, ok := o.plain.pathLen[m]
		if !ok {
			missing = append(missing, m)
		} else if n > 1 {
			longer = append(longer, m)
			prepend = n - 1
		}
	}
	switch {
	case len(missing) == len(members):
		return effect{action: dictionary.DoNotAnnounceTo}
	case len(missing) == 1:
		return effect{action: dictionary.DoNotAnnounceTo, target: missing[0]}
	case len(missing) > 1:
		return unexplained
	}
	if len(o.blocked.pathLen) == 1 {
		for m := range o.blocked.pathLen {
			return effect{action: dictionary.AnnounceOnlyTo, target: m}
		}
	}
	switch len(longer) {
	case 0:
		return effect{noop: true}
	case 1:
		return effect{action: dictionary.PrependTo, target: longer[0], prepend: prepend}
	case len(members):
		return effect{action: dictionary.PrependTo, prepend: prepend}
	}
	return unexplained
}

// stated is the effect an action on target (0: every member) must have
// given the membership.
func stated(a dictionary.ActionType, target uint32, prepend int, member map[uint32]bool) effect {
	switch {
	case a == dictionary.Informational || a == dictionary.Blackhole:
		return effect{action: a}
	case target != 0 && !member[target], a == dictionary.AnnounceOnlyTo && target == 0:
		return effect{noop: true}
	}
	return effect{action: a, target: target, prepend: prepend}
}

// entryProbes turns every dictionary entry into a probe. An entry has
// no prepend count of its own: it is the prepend high half's offset
// from PrependOnceASN, the convention the scheme documents.
func entryProbes(s *dictionary.Scheme, member map[uint32]bool) []probe {
	var out []probe
	for _, e := range s.Entries() {
		n := 0
		if e.Action == dictionary.PrependTo {
			n = int(e.Community.ASN()-dictionary.PrependOnceASN) + 1
		}
		out = append(out, probe{
			name: e.Community.String(),
			tags: bgp.Route{Communities: []bgp.Community{e.Community}},
			want: stated(e.Action, e.TargetASN, n, member),
		})
	}
	return out
}

// extLargeProbes builds the extended and large action values the scheme
// defines, towards a member, a non-member, everyone and (large only)
// the 32-bit member and non-member.
func extLargeProbes(t *testing.T, s *dictionary.Scheme, member map[uint32]bool, in, out uint16) []probe {
	t.Helper()
	var ps []probe
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	ext := func(x bgp.ExtendedCommunity, want effect) {
		ps = append(ps, probe{name: x.String(), tags: bgp.Route{ExtCommunities: []bgp.ExtendedCommunity{x}}, want: want})
	}
	large := func(l bgp.LargeCommunity, want effect) {
		ps = append(ps, probe{name: l.String(), tags: bgp.Route{LargeCommunities: []bgp.LargeCommunity{l}}, want: want})
	}

	for k := 0; k < 2; k++ {
		ext(s.ExtInfo(k), stated(dictionary.Informational, 0, 0, member))
	}
	if s.SupportsExtPrepend {
		for _, target := range []uint16{in, out} {
			for n := 1; n <= 3; n++ {
				x, err := s.ExtPrepend(n, target)
				must(err)
				ext(x, stated(dictionary.PrependTo, uint32(target), n, member))
			}
		}
	}
	if !s.SupportsLarge {
		return ps
	}
	for _, target := range []uint32{uint32(in), uint32(out), 0, probeWideMember, probeWideAbsent} {
		deny, err := s.LargeDoNotAnnounce(target)
		must(err)
		large(deny, stated(dictionary.DoNotAnnounceTo, target, 0, member))
		only, err := s.LargeAnnounceOnly(target)
		must(err)
		large(only, stated(dictionary.AnnounceOnlyTo, target, 0, member))
		if s.SupportsPrepend {
			for n := 1; n <= 3; n++ {
				l, err := s.LargePrepend(n, target)
				must(err)
				large(l, stated(dictionary.PrependTo, target, n, member))
			}
		}
	}
	for k := 0; k < s.InfoCount; k++ {
		l, err := s.LargeInfo(k)
		must(err)
		large(l, stated(dictionary.Informational, 0, 0, member))
	}
	if s.SupportsBlackhole {
		large(bgp.LargeCommunity{Global: uint32(s.RSASN), Local1: dictionary.LargeFnBlackhole},
			stated(dictionary.Blackhole, 0, 0, member))
	}
	return ps
}

// carries reports whether exported route r still holds every value of
// the probe's tags.
func carries(r *bgp.Route, tags bgp.Route) bool {
	for _, c := range tags.Communities {
		if !slices.Contains(r.Communities, c) {
			return false
		}
	}
	for _, x := range tags.ExtCommunities {
		if !slices.Contains(r.ExtCommunities, x) {
			return false
		}
	}
	for _, l := range tags.LargeCommunities {
		if !slices.Contains(r.LargeCommunities, l) {
			return false
		}
	}
	return true
}

// runProbes announces every probe three ways on a fresh route server,
// reads each member's export once and returns one observation per
// probe, in probe order.
func runProbes(t *testing.T, s *dictionary.Scheme, members []uint32, probes []probe) []observation {
	t.Helper()
	server, err := New(Config{Scheme: s, ScrubActions: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range append([]uint32{probeAnnouncer}, members...) {
		addPeer(t, server, asn, i+1)
	}
	type slot struct {
		probe int
		seen  *sighting
	}
	slots := make(map[netip.Prefix]slot)
	announce := func(p netip.Prefix, tags bgp.Route, extra ...bgp.Community) FilterReason {
		r := tags
		r.Prefix, r.NextHop, r.ASPath = p, netutil.PeerAddrV4(1), bgp.ASPath{probeAnnouncer}
		r.Communities = append(slices.Clip(tags.Communities), extra...)
		reason, err := server.Announce(probeAnnouncer, r)
		if err != nil {
			t.Fatal(err)
		}
		return reason
	}
	obs := make([]observation, len(probes))
	for i, pr := range probes {
		o := &obs[i]
		plain, blocked := netutil.SyntheticV4Prefix(2*i), netutil.SyntheticV4Prefix(2*i+1)
		host := netip.PrefixFrom(plain.Addr(), 32)
		for _, sg := range []*sighting{&o.plain, &o.blocked, &o.host} {
			sg.pathLen = map[uint32]int{}
		}
		slots[plain], slots[blocked], slots[host] = slot{i, &o.plain}, slot{i, &o.blocked}, slot{i, &o.host}
		for p, extra := range map[netip.Prefix][]bgp.Community{plain: nil, blocked: {s.DoNotAnnounceAll()}} {
			if reason := announce(p, pr.tags, extra...); reason != FilterNone {
				t.Fatalf("%s: %s filtered: %v", pr.name, p, reason)
			}
		}
		announce(host, pr.tags)
	}
	for _, m := range members {
		server.VisitExported(m, func(r *bgp.Route) {
			sl, ok := slots[r.Prefix]
			if !ok {
				t.Fatalf("AS%d received unknown prefix %s", m, r.Prefix)
			}
			sl.seen.pathLen[m] = r.ASPath.Len()
			sl.seen.kept = sl.seen.kept || carries(r, probes[sl.probe].tags)
		})
	}
	return obs
}

func TestProbeReconstructsDictionary(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range dictionary.Profiles() {
		t.Run(s.IXP, func(t *testing.T) {
			// Every third documented target stays out of the membership,
			// so each action kind is probed towards members and
			// non-members alike.
			member := map[uint32]bool{probeWideMember: true}
			members := []uint32{probeWideMember}
			var in, out uint16
			for i, target := range s.DocumentedTargets {
				if target == probeAnnouncer {
					t.Fatalf("documented target AS%d is the announcer", target)
				}
				if i%3 == 2 {
					out = target
					continue
				}
				in = target
				member[uint32(target)] = true
				members = append(members, uint32(target))
			}
			probes := append(entryProbes(s, member), extLargeProbes(t, s, member, in, out)...)
			obs := runProbes(t, s, members, probes)
			for i, pr := range probes {
				got := infer(obs[i], members)
				if got != pr.want {
					t.Errorf("%s: routing shows %v, the scheme states %v", pr.name, got, pr.want)
				}
				if got.noop {
					seen["no-op"] = true
				} else {
					seen[got.action.String()] = true
				}
			}
		})
	}
	// The probes must have exercised every kind of effect, or the
	// comparison above proves less than it claims.
	for _, kind := range []string{"do-not-announce-to", "announce-only-to", "prepend-to", "blackholing", "informational", "no-op"} {
		if !seen[kind] {
			t.Errorf("no probe showed a %s effect", kind)
		}
	}
}

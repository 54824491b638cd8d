package dictionary

import (
	"testing"

	"ixplight/internal/bgp"
)

func TestProfilesValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) != 8 {
		t.Fatalf("profiles = %d, want 8", len(ps))
	}
	names := map[string]bool{}
	for _, s := range ps {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.IXP, err)
		}
		if names[s.IXP] {
			t.Errorf("duplicate profile %s", s.IXP)
		}
		names[s.IXP] = true
	}
	for _, want := range BigFour {
		if !names[want] {
			t.Errorf("big-four IXP %s missing", want)
		}
	}
}

// TestDictionarySizesMatchPaper pins each per-IXP dictionary to the
// §3 entry counts (649/774/774/774/58/37/50/67, total 3,183).
func TestDictionarySizesMatchPaper(t *testing.T) {
	want := map[string]int{
		"IX.br-SP":   649,
		"DE-CIX":     774,
		"DE-CIX Mad": 774,
		"DE-CIX NYC": 774,
		"LINX":       58,
		"AMS-IX":     37,
		"BCIX":       50,
		"Netnod":     67,
	}
	total := 0
	for _, s := range Profiles() {
		got := len(s.Entries())
		if got != want[s.IXP] {
			t.Errorf("%s: %d entries, want %d", s.IXP, got, want[s.IXP])
		}
		total += got
	}
	if total != 3183 {
		t.Errorf("total entries = %d, want 3183", total)
	}
}

func TestUnionReconstructsFullDictionary(t *testing.T) {
	for _, s := range Profiles() {
		full := s.Entries()
		rs := s.RSConfigEntries()
		web := s.WebsiteEntries()
		if len(rs) >= len(full) {
			t.Errorf("%s: RS config list (%d) should be incomplete (< %d)", s.IXP, len(rs), len(full))
		}
		if len(web) >= len(full) {
			t.Errorf("%s: website list (%d) should be incomplete (< %d)", s.IXP, len(web), len(full))
		}
		union := UnionEntries(rs, web)
		if len(union) != len(full) {
			t.Errorf("%s: union = %d entries, want %d", s.IXP, len(union), len(full))
		}
	}
}

func TestClassifyActionPatterns(t *testing.T) {
	s := newDECIX("DE-CIX", 6695)
	cases := []struct {
		comm   string
		known  bool
		action ActionType
		target TargetKind
		asn    uint32
		prep   int
	}{
		{"0:15169", true, DoNotAnnounceTo, TargetPeer, 15169, 0},
		{"0:6695", true, DoNotAnnounceTo, TargetAll, 0, 0},
		{"6695:15169", true, AnnounceOnlyTo, TargetPeer, 15169, 0},
		{"6695:6695", true, AnnounceOnlyTo, TargetAll, 0, 0},
		{"65501:15169", true, PrependTo, TargetPeer, 15169, 1},
		{"65502:15169", true, PrependTo, TargetPeer, 15169, 2},
		{"65503:6695", true, PrependTo, TargetAll, 0, 3},
		{"65535:666", true, Blackhole, TargetNone, 0, 0},
		{"6696:5", true, Informational, TargetNone, 0, 0},
		{"6696:20", true, Informational, TargetNone, 0, 0},
		{"6696:21", false, Informational, TargetNone, 0, 0}, // beyond InfoCount
		{"0:0", false, Informational, TargetNone, 0, 0},
		{"6695:0", false, Informational, TargetNone, 0, 0},
		{"15169:100", false, Informational, TargetNone, 0, 0}, // member-private
		{"65504:15169", false, Informational, TargetNone, 0, 0},
		{"65535:665", false, Informational, TargetNone, 0, 0},
	}
	for _, tt := range cases {
		cl := s.Classify(bgp.MustParseCommunity(tt.comm))
		if cl.Known != tt.known {
			t.Errorf("%s: Known = %v, want %v", tt.comm, cl.Known, tt.known)
			continue
		}
		if !tt.known {
			continue
		}
		if cl.Action != tt.action || cl.Target != tt.target || cl.TargetASN != tt.asn || cl.PrependCount != tt.prep {
			t.Errorf("%s: got %+v", tt.comm, cl)
		}
	}
}

func TestClassifyFeatureFlags(t *testing.T) {
	ixbr := ProfileByName("IX.br-SP")
	if cl := ixbr.Classify(bgp.BlackholeWellKnown); cl.Known {
		t.Error("IX.br-SP must not define the blackhole community")
	}
	if cl := ixbr.Classify(bgp.MustParseCommunity("65501:15169")); !cl.Known || cl.Action != PrependTo {
		t.Error("IX.br-SP must define prepend communities")
	}
	ams := ProfileByName("AMS-IX")
	if cl := ams.Classify(bgp.MustParseCommunity("65501:15169")); cl.Known {
		t.Error("AMS-IX must not define standard prepend communities")
	}
	if cl := ams.Classify(bgp.BlackholeWellKnown); !cl.Known || cl.Action != Blackhole {
		t.Error("AMS-IX must define the blackhole community")
	}
	linx := ProfileByName("LINX")
	if cl := linx.Classify(bgp.BlackholeWellKnown); cl.Known {
		t.Error("LINX must not define the blackhole community")
	}
}

func TestClassifyAgreesWithEntries(t *testing.T) {
	// Every enumerated dictionary entry must classify as Known with the
	// same action/target as its entry row.
	for _, s := range Profiles() {
		for _, e := range s.Entries() {
			cl := s.Classify(e.Community)
			if !cl.Known {
				t.Errorf("%s: entry %s unknown to Classify", s.IXP, e.Community)
				continue
			}
			if cl.Action != e.Action {
				t.Errorf("%s: entry %s action %v, Classify says %v", s.IXP, e.Community, e.Action, cl.Action)
			}
			if e.Target == TargetPeer && cl.TargetASN != e.TargetASN {
				t.Errorf("%s: entry %s target %d, Classify says %d", s.IXP, e.Community, e.TargetASN, cl.TargetASN)
			}
		}
	}
}

// TestPeerActionAgreesWithClassify: PeerAction is the targeted half of
// Classify, for every low half under every high half that anchors an
// encoding (and two that anchor none), on every profile.
func TestPeerActionAgreesWithClassify(t *testing.T) {
	for _, s := range Profiles() {
		highs := []uint16{0, 1, s.RSASN, s.InfoASN, PrependOnceASN - 1, PrependOnceASN, PrependTwiceASN, PrependThriceASN, PrependThriceASN + 1, 65535}
		for _, high := range highs {
			for low := 0; low <= 0xFFFF; low++ {
				c := bgp.NewCommunity(high, uint16(low))
				want := Informational
				if cl := s.Classify(c); cl.Target == TargetPeer {
					want = cl.Action
				}
				if got := s.PeerAction(c); got != want {
					t.Fatalf("%s: PeerAction(%s) = %v, Classify aims %v at one peer", s.IXP, c, got, want)
				}
			}
		}
	}
}

func TestSchemeBuilderErrors(t *testing.T) {
	ams := ProfileByName("AMS-IX")
	if _, err := ams.Prepend(1, 15169); err == nil {
		t.Error("AMS-IX Prepend must error")
	}
	linx := ProfileByName("LINX")
	if _, err := linx.BlackholeCommunity(); err == nil {
		t.Error("LINX BlackholeCommunity must error")
	}
	de := ProfileByName("DE-CIX")
	if _, err := de.Prepend(0, 1); err == nil {
		t.Error("prepend count 0 must error")
	}
	if _, err := de.Prepend(4, 1); err == nil {
		t.Error("prepend count 4 must error")
	}
	if _, err := de.Info(de.InfoCount); err == nil {
		t.Error("out-of-range Info must error")
	}
	if _, err := de.Info(-1); err == nil {
		t.Error("negative Info must error")
	}
}

func TestSchemeValidateRejectsCollisions(t *testing.T) {
	bad := &Scheme{IXP: "X", RSASN: 100, InfoASN: 100}
	if err := bad.Validate(); err == nil {
		t.Error("RS/info collision accepted")
	}
	bad2 := &Scheme{IXP: "X", RSASN: 65502, InfoASN: 5}
	if err := bad2.Validate(); err == nil {
		t.Error("RSASN in prepend range accepted")
	}
	bad3 := &Scheme{RSASN: 1, InfoASN: 2}
	if err := bad3.Validate(); err == nil {
		t.Error("empty name accepted")
	}
}

func TestDictionaryLookup(t *testing.T) {
	d := Build(ProfileByName("DE-CIX"))
	if d.Size() != 774 {
		t.Fatalf("size = %d", d.Size())
	}
	for _, e := range d.Entries() {
		got, ok := d.Lookup(e.Community)
		if !ok {
			t.Fatalf("entry %s not found", e.Community)
		}
		if got != e {
			t.Fatalf("Lookup(%s) = %+v, want %+v", e.Community, got, e)
		}
	}
	if _, ok := d.Lookup(bgp.MustParseCommunity("12345:12345")); ok {
		t.Error("absent community found")
	}
}

// TestMergedDictionary: the paper's dictionary sums to 3,183 entries
// over the eight schemes ("more than 3000 communities"), and merged into
// one — colliding values, such as the shared RFC 7999 blackhole
// community, kept once — it is smaller.
func TestMergedDictionary(t *testing.T) {
	var all []Entry
	for _, s := range Profiles() {
		all = append(all, s.Entries()...)
	}
	m := FromEntries("merged", all)
	// The merged set is smaller than the 3,183 sum because IXPs share
	// values (blackhole, overlapping 0:target entries).
	if m.Size() >= 3183 {
		t.Errorf("merged size = %d, want < 3183 (shared values collapse)", m.Size())
	}
	if m.Size() < 1000 {
		t.Errorf("merged size = %d suspiciously small", m.Size())
	}
	if len(all) != 3183 {
		t.Errorf("the schemes hold %d entries, want 3183", len(all))
	}
	if _, ok := m.Lookup(bgp.BlackholeWellKnown); !ok {
		t.Error("merged dictionary misses the blackhole community")
	}
}

func TestActionTypeStrings(t *testing.T) {
	want := map[ActionType]string{
		Informational:   "informational",
		DoNotAnnounceTo: "do-not-announce-to",
		AnnounceOnlyTo:  "announce-only-to",
		PrependTo:       "prepend-to",
		Blackhole:       "blackholing",
		ActionType(42):  "unknown",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
	if Informational.IsAction() {
		t.Error("informational must not be an action")
	}
	for _, a := range ActionTypes {
		if !a.IsAction() {
			t.Errorf("%v must be an action", a)
		}
	}
	for tk, s := range map[TargetKind]string{TargetNone: "none", TargetAll: "all", TargetPeer: "peer"} {
		if tk.String() != s {
			t.Errorf("TargetKind %d = %q, want %q", int(tk), tk.String(), s)
		}
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if ProfileByName("nope") != nil {
		t.Error("unknown profile must be nil")
	}
}

func TestDocumentedTargetsAvoidAnchors(t *testing.T) {
	for _, s := range Profiles() {
		for _, tgt := range s.DocumentedTargets {
			if tgt == s.RSASN || tgt == s.InfoASN || tgt == 0 {
				t.Errorf("%s: documented target %d collides with an anchor", s.IXP, tgt)
			}
		}
	}
}

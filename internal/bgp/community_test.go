package bgp

import (
	"testing"
	"testing/quick"
)

func TestCommunityHalves(t *testing.T) {
	tests := []struct {
		asn, value uint16
		want       string
	}{
		{0, 0, "0:0"},
		{0, 15169, "0:15169"},
		{64500, 64500, "64500:64500"},
		{65535, 666, "65535:666"},
		{1, 65535, "1:65535"},
	}
	for _, tt := range tests {
		c := NewCommunity(tt.asn, tt.value)
		if c.ASN() != tt.asn || c.Value() != tt.value {
			t.Errorf("NewCommunity(%d,%d) halves = %d:%d", tt.asn, tt.value, c.ASN(), c.Value())
		}
		if got := c.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestCommunityRoundTripQuick(t *testing.T) {
	f := func(asn, value uint16) bool {
		c := NewCommunity(asn, value)
		parsed, err := ParseCommunity(c.String())
		return err == nil && parsed == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseCommunityErrors(t *testing.T) {
	for _, s := range []string{"", "123", "a:b", "65536:0", "0:65536", "-1:0", "1:2:3", "1:", ":1"} {
		if _, err := ParseCommunity(s); err == nil {
			t.Errorf("ParseCommunity(%q): want error", s)
		}
	}
}

func TestWellKnownCommunities(t *testing.T) {
	if NoExport.String() != "65535:65281" {
		t.Errorf("NoExport = %s", NoExport)
	}
	if BlackholeWellKnown.String() != "65535:666" {
		t.Errorf("Blackhole = %s", BlackholeWellKnown)
	}
	if !NoAdvertise.IsWellKnown() || !BlackholeWellKnown.IsWellKnown() {
		t.Error("well-known range detection failed")
	}
	if NewCommunity(64500, 1).IsWellKnown() {
		t.Error("64500:1 must not be well-known")
	}
}

func TestDedupCommunities(t *testing.T) {
	in := []Community{
		NewCommunity(3, 3), NewCommunity(1, 1), NewCommunity(3, 3),
		NewCommunity(2, 2), NewCommunity(1, 1),
	}
	out := DedupCommunities(in)
	want := []Community{NewCommunity(1, 1), NewCommunity(2, 2), NewCommunity(3, 3)}
	if len(out) != len(want) {
		t.Fatalf("len = %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %s, want %s", i, out[i], want[i])
		}
	}
	if got := DedupCommunities(nil); len(got) != 0 {
		t.Errorf("DedupCommunities(nil) = %v", got)
	}
	one := []Community{NewCommunity(9, 9)}
	if got := DedupCommunities(one); len(got) != 1 || got[0] != one[0] {
		t.Errorf("single-element dedup = %v", got)
	}
}

func TestHasCommunity(t *testing.T) {
	cs := []Community{NewCommunity(0, 15169), NewCommunity(64500, 64500)}
	if !HasCommunity(cs, NewCommunity(0, 15169)) {
		t.Error("expected member not found")
	}
	if HasCommunity(cs, NewCommunity(0, 15170)) {
		t.Error("non-member reported found")
	}
	if HasCommunity(nil, NewCommunity(0, 0)) {
		t.Error("nil slice reported a member")
	}
}

func TestMustParseCommunityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseCommunity did not panic on bad input")
		}
	}()
	MustParseCommunity("not-a-community")
}

func TestMustParseCommunityOK(t *testing.T) {
	if MustParseCommunity("0:15169") != NewCommunity(0, 15169) {
		t.Error("MustParseCommunity wrong value")
	}
}

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
	if BlackholeWellKnown.String() != "65535:666" || BlackholeWellKnown.ASN() != 0xFFFF {
		t.Errorf("Blackhole = %s, want 65535:666 in the well-known range", BlackholeWellKnown)
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

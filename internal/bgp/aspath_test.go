package bgp

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestASPathBasics(t *testing.T) {
	p := ASPath{6939, 64500, 64501}
	if p.Neighbor() != 6939 {
		t.Errorf("Neighbor = %d", p.Neighbor())
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d", p.Len())
	}
	if !p.Contains(64500) || p.Contains(1) {
		t.Error("Contains misbehaved")
	}
	var empty ASPath
	if empty.Neighbor() != 0 {
		t.Error("empty path neighbor must be 0")
	}
}

func TestASPathPrepend(t *testing.T) {
	p := ASPath{64500}
	q := p.Prepend(64500, 2)
	if q.String() != "64500 64500 64500" {
		t.Errorf("Prepend = %q", q)
	}
	if p.String() != "64500" {
		t.Errorf("Prepend mutated receiver: %q", p)
	}
	r := p.Prepend(1, 0)
	if r.String() != "64500" {
		t.Errorf("Prepend n=0 = %q", r)
	}
	// Prepend must return an independent copy even for n=0.
	r[0] = 99
	if p[0] != 64500 {
		t.Error("Prepend n=0 aliased the receiver")
	}
}

func TestASPathHasLoop(t *testing.T) {
	for _, tt := range []struct {
		path ASPath
		want bool
	}{
		{ASPath{1, 2, 3}, false},
		{ASPath{1, 1, 1, 2}, false}, // legitimate prepending
		{ASPath{1, 2, 1}, true},     // loop
		{ASPath{}, false},
		{ASPath{5}, false},
		{ASPath{1, 2, 2, 3, 2}, true},
	} {
		if got := tt.path.HasLoop(); got != tt.want {
			t.Errorf("HasLoop(%v) = %v, want %v", tt.path, got, tt.want)
		}
	}
}

// TestASPathHasLoopMatchesDefinition holds HasLoop's scan to the
// definition on random paths drawn from few ASNs, so that prepending and
// loops are both common.
func TestASPathHasLoopMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	loops, clean := 0, 0
	for trial := 0; trial < 4000; trial++ {
		p := make(ASPath, rng.Intn(24))
		asn := uint32(1)
		for i := range p {
			if rng.Intn(3) > 0 {
				asn = uint32(1 + rng.Intn(1+len(p)*(1+trial%8)))
			}
			p[i] = asn
		}
		want := false
		for i := range p {
			for j := 0; j < i-1; j++ {
				if p[j] == p[i] && p[i-1] != p[i] {
					want = true
				}
			}
		}
		if got := p.HasLoop(); got != want {
			t.Fatalf("HasLoop(%v) = %v, want %v", p, got, want)
		}
		if want {
			loops++
		} else {
			clean++
		}
	}
	if loops < 400 || clean < 400 {
		t.Errorf("%d looped and %d clean paths: the draw no longer covers both", loops, clean)
	}
}

func TestASPathStringRoundTripQuick(t *testing.T) {
	// String's format is space-separated decimal ASNs: parsing it back
	// field by field recovers the path.
	parse := func(s string) (ASPath, error) {
		var p ASPath
		for _, f := range strings.Fields(s) {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, err
			}
			p = append(p, uint32(v))
		}
		return p, nil
	}
	f := func(asns []uint32) bool {
		p := ASPath(asns)
		parsed, err := parse(p.String())
		if err != nil {
			return false
		}
		if len(parsed) != len(p) {
			return len(p) == 0 && len(parsed) == 0
		}
		for i := range p {
			if parsed[i] != p[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

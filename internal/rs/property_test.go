package rs

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
)

// Property tests over randomly tagged tables: for any combination of
// action communities, the route server must satisfy three invariants
// for every target peer:
//
//  1. reference: ExportTo(t) equals the from-scratch reference
//     (exportScan), and no route the reference withholds is exported;
//  2. scrub-completeness: no exported route carries a known action
//     community (except a retained blackhole marker);
//  3. prepend monotonicity: an exported path is the stored path with
//     zero or more copies of the announcer prepended.
func TestExportInvariantsRandomized(t *testing.T) {
	scheme := dictionary.ProfileByName("DE-CIX")
	rng := rand.New(rand.NewSource(2024))

	for trial := 0; trial < 30; trial++ {
		s, err := New(Config{Scheme: scheme, ScrubActions: true})
		if err != nil {
			t.Fatal(err)
		}
		const nPeers = 6
		peers := make([]uint32, nPeers)
		for i := range peers {
			peers[i] = uint32(100 + i)
			addPeer(t, s, peers[i])
		}
		for i, peer := range peers {
			for k, n := 0, 1+rng.Intn(8); k < n; k++ {
				r := bgp.Route{
					Prefix:      netutil.SyntheticV4Prefix(trial*1000 + i*100 + k),
					NextHop:     netutil.PeerAddrV4(i + 1),
					ASPath:      bgp.ASPath{peer},
					Communities: randomActionSet(rng, scheme, peers),
				}
				announceOK(t, s, peer, r)
			}
		}

		for _, target := range peers {
			exported := s.ExportTo(target)

			// 1. Reference.
			wantExported, withheld := s.exportScan(target)
			if !reflect.DeepEqual(exported, wantExported) {
				t.Fatalf("trial %d target %d: ExportTo\n got  %v\n want %v", trial, target, exported, wantExported)
			}
			seen := map[netip.Prefix]bool{} // each peer announces its own prefixes
			for _, r := range exported {
				seen[r.Prefix] = true
			}
			for _, r := range withheld {
				if seen[r.Prefix] {
					t.Fatalf("trial %d target %d: route %s both exported and withheld", trial, target, r.Prefix)
				}
			}

			for _, r := range exported {
				// 2. Scrub-completeness.
				for _, c := range r.Communities {
					cl := scheme.Classify(c)
					if cl.IsAction() && cl.Action != dictionary.Blackhole {
						t.Fatalf("trial %d target %d: exported route %s carries action %s",
							trial, target, r.Prefix, c)
					}
				}
				// 3. Prepend monotonicity: path is announcer^k + original,
				// and the original tail is a single announcer hop here.
				announcer := r.ASPath[len(r.ASPath)-1]
				for _, hop := range r.ASPath {
					if hop != announcer {
						t.Fatalf("trial %d target %d: path %v is not pure prepending", trial, target, r.ASPath)
					}
				}
				if len(r.ASPath) > 4 {
					t.Fatalf("trial %d target %d: %d prepends exceed the 3x maximum", trial, target, len(r.ASPath)-1)
				}
			}
		}
	}
}

// randomActionSet draws a random community list mixing all action
// kinds, member and non-member targets, info tags and private values.
func randomActionSet(rng *rand.Rand, scheme *dictionary.Scheme, peers []uint32) []bgp.Community {
	var out []bgp.Community
	maybe := func(p float64, c bgp.Community) {
		if rng.Float64() < p {
			out = append(out, c)
		}
	}
	target := func() uint16 {
		if rng.Float64() < 0.5 {
			return uint16(peers[rng.Intn(len(peers))])
		}
		return uint16(40000 + rng.Intn(100)) // non-member
	}
	maybe(0.4, scheme.DoNotAnnounce(target()))
	maybe(0.2, scheme.DoNotAnnounce(target()))
	maybe(0.15, scheme.DoNotAnnounceAll())
	maybe(0.25, scheme.AnnounceOnly(target()))
	if c, err := scheme.Prepend(1+rng.Intn(3), target()); err == nil {
		maybe(0.2, c)
	}
	if info, err := scheme.Info(rng.Intn(scheme.InfoCount)); err == nil {
		maybe(0.5, info)
	}
	maybe(0.3, bgp.NewCommunity(uint16(100+rng.Intn(6)), uint16(rng.Intn(500))))
	return out
}

// TestWhitelistInvariant: a route carrying block-all plus allow-list
// entries is exported to exactly the allowed members (minus any
// specifically denied).
func TestWhitelistInvariant(t *testing.T) {
	scheme := dictionary.ProfileByName("DE-CIX")
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s, err := New(Config{Scheme: scheme, ScrubActions: true})
		if err != nil {
			t.Fatal(err)
		}
		peers := []uint32{100, 200, 300, 400, 500}
		for _, p := range peers {
			addPeer(t, s, p)
		}
		comms := []bgp.Community{scheme.DoNotAnnounceAll()}
		allowed := map[uint32]bool{}
		denied := map[uint32]bool{}
		for _, p := range peers[1:] {
			switch rng.Intn(3) {
			case 0:
				comms = append(comms, scheme.AnnounceOnly(uint16(p)))
				allowed[p] = true
			case 1:
				comms = append(comms, scheme.DoNotAnnounce(uint16(p)))
				denied[p] = true
			}
		}
		r := bgp.Route{
			Prefix:      netutil.SyntheticV4Prefix(trial),
			NextHop:     netutil.PeerAddrV4(1),
			ASPath:      bgp.ASPath{100},
			Communities: comms,
		}
		announceOK(t, s, 100, r)
		for _, p := range peers[1:] {
			got := len(s.ExportTo(p)) == 1
			want := allowed[p] && !denied[p]
			if got != want {
				t.Errorf("trial %d: peer %d got=%v want=%v (allowed=%v denied=%v)",
					trial, p, got, want, allowed[p], denied[p])
			}
		}
	}
}

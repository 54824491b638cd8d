package rs

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/netutil"
)

// TestConcurrentAnnounceExport hammers the server from writer and
// reader goroutines simultaneously; run with -race this pins the
// locking discipline.
func TestConcurrentAnnounceExport(t *testing.T) {
	s := testServer(t, "DE-CIX")
	const peers = 8
	for i := 0; i < peers; i++ {
		addPeer(t, s, uint32(100+i), i+1)
	}
	scheme := s.Scheme()

	var wg sync.WaitGroup
	// Writers: each peer announces, withdraws and re-announces.
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			peer := uint32(100 + i)
			for k := 0; k < 50; k++ {
				r := bgp.Route{
					Prefix:      netutil.SyntheticV4Prefix(i*100 + k),
					NextHop:     netutil.PeerAddrV4(i + 1),
					ASPath:      bgp.ASPath{peer},
					Communities: []bgp.Community{scheme.DoNotAnnounce(uint16(100 + (i+1)%peers))},
				}
				if _, err := s.Announce(peer, r); err != nil {
					t.Error(err)
					return
				}
				if k%10 == 0 {
					s.Withdraw(peer, r.Prefix)
					if _, err := s.Announce(peer, r); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}
	// Readers: exports, stats, peer lists while writes are in flight.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				_ = s.ExportTo(uint32(100 + (i+k)%peers))
				_ = s.Stats()
				_ = s.Peers()
				_ = s.AcceptedRoutes(uint32(100 + k%peers))
			}
		}(i)
	}
	wg.Wait()

	st := s.Stats()
	if st.RoutesV4 != peers*50 {
		t.Errorf("routes = %d, want %d", st.RoutesV4, peers*50)
	}
	// Every peer must miss exactly the routes avoiding it: peer i is
	// avoided by peer i-1 (mod peers), so it sees (peers-2)*50 routes
	// from the others... verify one case precisely.
	got := len(s.ExportTo(101))
	want := (peers - 2) * 50 // everyone else's routes minus AS100's (which avoid 101)
	if got != want {
		t.Errorf("export to AS101 = %d routes, want %d", got, want)
	}
}

// TestPagesDuringCompaction serves looking-glass pages — windows of
// VisitAccepted and VisitNotExported rendered into memory under the
// read lock, as the looking glass renders them — while a writer churns
// one member's routes through at least three compactions of the slabs
// (run it under -race). Every route the writer announces derives its
// lists from its MED, so a route whose lists moved under the reader, or
// a page whose routes disagree with its total or its order, is torn.
func TestPagesDuringCompaction(t *testing.T) {
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100, 1)
	addPeer(t, s, 200, 2)
	scheme := s.Scheme()
	const prefixes = 64
	versioned := func(i int, v uint32) bgp.Route {
		r := bgp.Route{Prefix: netutil.SyntheticV4Prefix(i), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{100}, MED: v}
		for k := uint32(0); k <= v%40; k++ {
			r.Communities = append(r.Communities, bgp.NewCommunity(100, uint16(v)))
		}
		if v%3 == 0 {
			r.Communities = append(r.Communities, scheme.DoNotAnnounce(200))
		}
		return r
	}
	whole := func(r *bgp.Route) bool {
		want := versioned(0, r.MED)
		return slices.Equal(r.ASPath, want.ASPath) && slices.Equal(r.Communities, want.Communities)
	}

	accepted := func(offset, limit int, visit func(*bgp.Route)) int { return s.VisitAccepted(100, offset, limit, visit) }
	withheld := func(offset, limit int, visit func(*bgp.Route)) int {
		return s.VisitNotExported(200, offset, limit, visit)
	}

	var pages atomic.Int64
	done := make(chan struct{})
	var readers sync.WaitGroup
	defer func() {
		close(done)
		readers.Wait()
	}()
	for reader := 0; reader < 2; reader++ {
		readers.Add(1)
		go func(reader int) {
			defer readers.Done()
			var page []byte
			for size := 1 + reader*7; ; size = size%prefixes + 5 {
				select {
				case <-done:
					return
				default:
				}
				for _, view := range []func(offset, limit int, visit func(*bgp.Route)) int{accepted, withheld} {
					for offset := 0; ; offset += size {
						page = page[:0]
						var prev netip.Prefix
						n, torn := 0, ""
						total := view(offset, size, func(r *bgp.Route) {
							switch {
							case !whole(r):
								torn = "route " + r.String() + " does not match its MED"
							case n > 0 && comparePrefix(prev, r.Prefix) >= 0:
								torn = "routes out of prefix order"
							}
							page = fmt.Appendf(page, "%s %d %v;", r.Prefix, r.MED, r.Communities)
							prev = r.Prefix
							n++
						})
						if want := min(size, max(0, total-offset)); torn == "" && n != want {
							torn = fmt.Sprintf("%d routes on a page of %d at %d of %d", n, size, offset, total)
						}
						if torn != "" {
							t.Errorf("torn page: %s", torn)
							return
						}
						pages.Add(1)
						if offset+size >= total {
							break
						}
					}
				}
			}
		}(reader)
	}

	rng := rand.New(rand.NewSource(3))
	compactions, lastHeld, step := 0, 0, 0
	for ; compactions < 3 || pages.Load() < 200; step++ {
		if step == 20_000 {
			t.Fatalf("%d compactions and %d pages after %d steps", compactions, pages.Load(), step)
		}
		i := rng.Intn(prefixes)
		if rng.Intn(8) == 0 {
			s.Withdraw(100, netutil.SyntheticV4Prefix(i))
		} else if _, err := s.Announce(100, versioned(i, uint32(step))); err != nil {
			t.Fatal(err)
		}
		held := s.slabsHeld()
		if held < lastHeld {
			compactions++
		}
		lastHeld = held
	}
	t.Logf("%d compactions, %d steps, %d pages so far", compactions, step, pages.Load())
}

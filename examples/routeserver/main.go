// Route-server example: three members peer with a DE-CIX-style route
// server and steer propagation with action communities. Shows
// do-not-announce-to, the block-all + whitelist pattern, prepending,
// and community scrubbing — the §2 semantics the whole measurement
// rests on. Announcements go straight into the server, the way the
// workload generator populates it; the looking glass is where those
// effects become visible to a crawler.
package main

import (
	"fmt"
	"log"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
	"ixplight/internal/rs"
)

func main() {
	scheme := dictionary.ProfileByName("DE-CIX")
	server, err := rs.New(rs.Config{Scheme: scheme, ScrubActions: true})
	if err != nil {
		log.Fatal(err)
	}
	// Register the three members (AS 64512–64514).
	for i, asn := range []uint32{64512, 64513, 64514} {
		if err := server.AddPeer(rs.Peer{
			ASN: asn, Name: fmt.Sprintf("member-%d", asn),
			AddrV4: netutil.PeerAddrV4(i + 1), IPv4: true,
		}); err != nil {
			log.Fatal(err)
		}
	}

	// AS64512 announces three routes:
	//  a) plain, to everyone
	//  b) do-not-announce-to AS64513
	//  c) block-all + announce-only-to AS64513, prepended 2x
	prepend2, _ := scheme.Prepend(2, 64513)
	announce := []struct {
		label string
		comms []bgp.Community
	}{
		{"plain", nil},
		{"avoid AS64513", []bgp.Community{scheme.DoNotAnnounce(64513)}},
		{"whitelist AS64513 + prepend 2x", []bgp.Community{
			scheme.DoNotAnnounceAll(), scheme.AnnounceOnly(64513), prepend2}},
	}
	for i, a := range announce {
		r := bgp.Route{
			Prefix:      netutil.SyntheticV4Prefix(i),
			NextHop:     netutil.PeerAddrV4(1),
			ASPath:      bgp.ASPath{64512},
			Communities: a.comms,
		}
		reason, err := server.Announce(64512, r)
		if err != nil {
			log.Fatal(err)
		}
		if reason != rs.FilterNone {
			log.Fatalf("%s filtered: %v", r.Prefix, reason)
		}
		fmt.Printf("announced %s (%s)\n", r.Prefix, a.label)
	}

	for _, target := range []uint32{64513, 64514} {
		fmt.Printf("\nexport towards AS%d:\n", target)
		for _, r := range server.ExportTo(target) {
			fmt.Printf("  %s path=[%s] communities=%v\n", r.Prefix, r.ASPath, r.Communities)
		}
	}
	fmt.Println("\nnote: AS64513 misses the avoided route but gets the whitelisted one")
	fmt.Println("      (with two prepends); AS64514 sees the opposite; all action")
	fmt.Println("      communities were scrubbed on export.")
}

// Blackholing example: a member under DDoS announces an RFC 7999
// host route at an IXP that supports blackholing (DE-CIX) and at one
// that does not (LINX), showing both the import special-case for /32s
// and the feature matrix from the paper's Table 2.
package main

import (
	"fmt"
	"log"
	"net/netip"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
	"ixplight/internal/rs"
)

func main() {
	victim := netip.MustParsePrefix("1.0.7.66/32") // attacked host

	for _, ixp := range []string{"DE-CIX", "LINX"} {
		scheme := dictionary.ProfileByName(ixp)
		fmt.Printf("=== %s (blackholing supported: %v)\n", ixp, scheme.SupportsBlackhole)

		server, err := rs.New(rs.Config{Scheme: scheme, ScrubActions: true})
		if err != nil {
			log.Fatal(err)
		}
		for _, asn := range []uint32{64512, 64513} {
			if err := server.AddPeer(rs.Peer{ASN: asn, Name: fmt.Sprintf("member-%d", asn), IPv4: true}); err != nil {
				log.Fatal(err)
			}
		}

		// The victim's normal /24 aggregate is always announced.
		aggregate := bgp.Route{
			Prefix:  netip.MustParsePrefix("1.0.7.0/24"),
			NextHop: netutil.PeerAddrV4(1),
			ASPath:  bgp.ASPath{64512},
		}
		if reason, _ := server.Announce(64512, aggregate); reason != rs.FilterNone {
			log.Fatalf("aggregate filtered: %v", reason)
		}

		// Under attack: blackhole the single host.
		bh := bgp.Route{
			Prefix:      victim,
			NextHop:     netutil.PeerAddrV4(1),
			ASPath:      bgp.ASPath{64512},
			Communities: []bgp.Community{bgp.BlackholeWellKnown},
		}
		reason, err := server.Announce(64512, bh)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("blackhole %s announcement: %v\n", victim, reason)

		fmt.Println("routes exported to AS64513:")
		for _, r := range server.ExportTo(64513) {
			marker := ""
			if bgp.HasCommunity(r.Communities, bgp.BlackholeWellKnown) {
				marker = "   ← blackhole, community retained for the receiver"
			}
			fmt.Printf("  %s%s\n", r.Prefix, marker)
		}
		fmt.Println()
	}
	fmt.Println("At DE-CIX the /32 bypasses the prefix-length filter and propagates")
	fmt.Println("with 65535:666 intact; at LINX the same announcement is filtered as")
	fmt.Println("out-of-bounds — matching the support matrix the paper observes.")
}

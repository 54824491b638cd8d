// Package lg implements the looking-glass layer the paper's collection
// depends on: an alice-lg-style HTTP JSON API serving what the §3
// crawl reads of a route server — its status, the neighbor summary
// with each neighbor's accepted and filtered counts, each neighbor's
// accepted routes and the configuration — and a client with
// pagination, rate limiting, retry with backoff and failure injection
// hooks for exercising the collector's resilience (LG instability and
// query rate limits, §3).
//
// The types in api.go define the wire shape. The small responses
// (status, neighbor summary) go through encoding/json on both ends.
// The route-server configuration, the artifact the §3 dictionary is
// parsed from, is served once, as BIRD-style text (config/raw). A
// routes page — nearly every byte a crawl moves — is
// rendered by hand into exactly the bytes json.Encoder writes
// (render.go), its paging members before its routes, and scanned
// straight into bgp.Route values while it has that shape, the listing
// sized from the paging members on page 0; any other body is read by
// json.Unmarshal + decodeRoute, which define a page (pagescan.go).
// TestRoutesPageMatchesEncodingJSON and FuzzRoutesPageDecode hold both
// halves to encoding/json.
package lg

import (
	"fmt"
	"net/netip"

	"ixplight/internal/bgp"
)

// API payload shapes. They deliberately differ from the storage types
// in internal/collector, as a real LG's JSON differs from a research
// dataset's schema; the collector maps between the two. RoutesResponse
// and APIRoute are what a routes page means: the golden test renders
// them through EncodeRoute and encoding/json to say what the server's
// bytes must be, and decodePageJSON reads a page through them.

// StatusResponse is returned by GET /api/v1/status.
type StatusResponse struct {
	IXP     string `json:"ixp"`
	Version string `json:"version"`
	RSASN   uint16 `json:"rs_asn"`
}

// Neighbor is one member session as the LG reports it.
type Neighbor struct {
	ASN            uint32 `json:"asn"`
	Description    string `json:"description"`
	IPv4           bool   `json:"ipv4"`
	IPv6           bool   `json:"ipv6"`
	RoutesAccepted int    `json:"routes_accepted"`
	RoutesFiltered int    `json:"routes_filtered"`
}

// NeighborsResponse is returned by GET /api/v1/routeservers/rs1/neighbors.
type NeighborsResponse struct {
	Neighbors []Neighbor `json:"neighbors"`
}

// APIRoute is the wire representation of one route. The three scalar
// path attributes are left out when zero; Origin is the RFC 4271 code
// (0 IGP, 1 EGP, 2 incomplete).
type APIRoute struct {
	Prefix           string   `json:"network"`
	NextHop          string   `json:"gateway"`
	ASPath           []uint32 `json:"as_path"`
	MED              uint32   `json:"med,omitempty"`
	LocalPref        uint32   `json:"local_pref,omitempty"`
	Origin           uint8    `json:"origin,omitempty"`
	Communities      []string `json:"communities"`
	ExtCommunities   []string `json:"ext_communities,omitempty"`
	LargeCommunities []string `json:"large_communities,omitempty"`
}

// RoutesResponse is one page of GET .../routes/received. The paging
// members come before the routes, so a client knows the listing's size
// before it reads the first route.
type RoutesResponse struct {
	Page       int        `json:"page"`
	PageSize   int        `json:"page_size"`
	TotalPages int        `json:"total_pages"`
	TotalCount int        `json:"total_count"`
	Routes     []APIRoute `json:"routes"`
}

// EncodeRoute converts an internal route into its API shape.
func EncodeRoute(r bgp.Route) APIRoute {
	out := APIRoute{
		Prefix:    r.Prefix.String(),
		NextHop:   r.NextHop.String(),
		ASPath:    r.ASPath,
		MED:       r.MED,
		LocalPref: r.LocalPref,
		Origin:    uint8(r.Origin),
	}
	for _, c := range r.Communities {
		out.Communities = append(out.Communities, c.String())
	}
	for _, e := range r.ExtCommunities {
		out.ExtCommunities = append(out.ExtCommunities, e.String())
	}
	for _, l := range r.LargeCommunities {
		out.LargeCommunities = append(out.LargeCommunities, l.String())
	}
	return out
}

// decodeRoute converts an API route back to the internal form.
func decodeRoute(a APIRoute) (bgp.Route, error) {
	prefix, err := netip.ParsePrefix(a.Prefix)
	if err != nil {
		return bgp.Route{}, err
	}
	nh, err := netip.ParseAddr(a.NextHop)
	if err != nil {
		return bgp.Route{}, err
	}
	if a.Origin > uint8(bgp.OriginIncomplete) {
		return bgp.Route{}, fmt.Errorf("origin %d is not an RFC 4271 code", a.Origin)
	}
	r := bgp.Route{Prefix: prefix, NextHop: nh, ASPath: a.ASPath, Origin: bgp.Origin(a.Origin), MED: a.MED, LocalPref: a.LocalPref}
	for _, s := range a.Communities {
		c, err := bgp.ParseCommunity(s)
		if err != nil {
			return bgp.Route{}, err
		}
		r.Communities = append(r.Communities, c)
	}
	for _, s := range a.ExtCommunities {
		e, err := bgp.ParseExtendedCommunity(s)
		if err != nil {
			return bgp.Route{}, err
		}
		r.ExtCommunities = append(r.ExtCommunities, e)
	}
	for _, s := range a.LargeCommunities {
		l, err := bgp.ParseLargeCommunity(s)
		if err != nil {
			return bgp.Route{}, err
		}
		r.LargeCommunities = append(r.LargeCommunities, l)
	}
	return r, nil
}

// Package lg implements the looking-glass layer the paper's collection
// depends on: an alice-lg-style HTTP JSON API exposing a route
// server's neighbors and per-neighbor accepted/filtered routes, and a
// client with pagination, rate limiting, retry with backoff and
// failure injection hooks for exercising the collector's resilience
// (LG instability and query rate limits, §3).
//
// The types in api.go define the wire shape. The small responses
// (status, neighbor summary, config, a filtered count) go through
// encoding/json on both ends. A routes page — nearly every byte a crawl
// moves — does not: the server appends it field by field from the route
// server's ordered view (render.go, O(page size) and one Write per
// page) and the client scans the body straight into bgp.Route values
// whose attribute slices are cut from per-listing chunks and shared
// between equal values (pagescan.go). Both halves are held to
// encoding/json by tests, not by convention: every routes endpoint's
// body must be byte-equal to json.Encoder's rendering of the same
// RoutesResponse, and the scanner must agree with json.Unmarshal +
// DecodeRoute — the previous decode, kept in oracle_test.go — on
// whether a body is accepted, rejected as malformed (retryable) or
// rejected for a route that does not parse, and on every route and
// paging field of an accepted one (FuzzRoutesPageDecode).
package lg

import "ixplight/internal/bgp"

// API payload shapes. They deliberately differ from the storage types
// in internal/collector, as a real LG's JSON differs from a research
// dataset's schema; the collector maps between the two. RoutesResponse
// and APIRoute are what a routes page looks like; neither end builds
// them on the crawl path any more (see the package comment), but the
// golden test renders them through EncodeRoute and encoding/json to
// say what the server's bytes must be, and flaky.go and FilteredCount
// still decode a page into them.

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

// APIRoute is the wire representation of one route.
type APIRoute struct {
	Prefix           string   `json:"network"`
	NextHop          string   `json:"gateway"`
	ASPath           []uint32 `json:"as_path"`
	Communities      []string `json:"communities"`
	ExtCommunities   []string `json:"ext_communities,omitempty"`
	LargeCommunities []string `json:"large_communities,omitempty"`
	FilterReason     string   `json:"filter_reason,omitempty"`
}

// RoutesResponse is one page of GET .../routes/received or /filtered.
type RoutesResponse struct {
	Routes     []APIRoute `json:"routes"`
	Page       int        `json:"page"`
	PageSize   int        `json:"page_size"`
	TotalPages int        `json:"total_pages"`
	TotalCount int        `json:"total_count"`
}

// ConfigResponse is returned by GET /api/v1/routeservers/rs1/config —
// the RS configuration extract the paper's dictionary starts from.
type ConfigResponse struct {
	IXP         string            `json:"ixp"`
	RSASN       uint16            `json:"rs_asn"`
	Communities []CommunityConfig `json:"communities"`
}

// CommunityConfig is one community definition in the RS config dump.
type CommunityConfig struct {
	Community   string `json:"community"`
	Action      string `json:"action"`
	Target      string `json:"target"`
	Description string `json:"description"`
}

// EncodeRoute converts an internal route into its API shape.
func EncodeRoute(r bgp.Route) APIRoute {
	out := APIRoute{
		Prefix:  r.Prefix.String(),
		NextHop: r.NextHop.String(),
		ASPath:  r.ASPath,
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

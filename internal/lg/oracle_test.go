package lg

import (
	"encoding/json"
	"errors"
	"net/netip"

	"ixplight/internal/bgp"
)

// The routes-page decode the client used before pagescan.go, kept as
// the differential oracle: json.Unmarshal into RoutesResponse, then
// DecodeRoute on every APIRoute.

// DecodeRoute converts an API route back to the internal form.
func DecodeRoute(a APIRoute) (bgp.Route, error) {
	prefix, err := netip.ParsePrefix(a.Prefix)
	if err != nil {
		return bgp.Route{}, err
	}
	nh, err := netip.ParseAddr(a.NextHop)
	if err != nil {
		return bgp.Route{}, err
	}
	r := bgp.Route{Prefix: prefix, NextHop: nh, ASPath: a.ASPath}
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

// The three things a page body can be.
const (
	pageOK       = "ok"
	pageBadJSON  = "bad_json"  // json.Unmarshal's errors: retryable
	pageBadRoute = "bad_route" // DecodeRoute's errors: fatal for the listing
)

// decodePageOracle decodes one page body the old way.
func decodePageOracle(body []byte) (routes []bgp.Route, info pageInfo, verdict string) {
	var resp RoutesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, pageInfo{}, pageBadJSON
	}
	for _, ar := range resp.Routes {
		r, err := DecodeRoute(ar)
		if err != nil {
			return nil, pageInfo{}, pageBadRoute
		}
		routes = append(routes, r)
	}
	return routes, pageInfo{
		routes: len(resp.Routes), page: resp.Page, pageSize: resp.PageSize,
		totalPages: resp.TotalPages, totalCount: resp.TotalCount,
	}, pageOK
}

// decodePageScanner decodes one page body with the scanner, onto
// routes.
func decodePageScanner(d *listingDecoder, body []byte, routes []bgp.Route) ([]bgp.Route, pageInfo, string, error) {
	routes, info, err := d.decodePage(body, routes)
	var bad *errBadRoute
	switch {
	case err == nil:
		return routes, info, pageOK, nil
	case errors.As(err, &bad):
		return routes, info, pageBadRoute, err
	default:
		return routes, info, pageBadJSON, err
	}
}

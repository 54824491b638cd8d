package lg

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/rs"
	"ixplight/internal/rsconfig"
)

// DefaultPageSize caps a routes page when the client does not specify
// one; real LGs paginate to keep responses bounded.
const DefaultPageSize = 500

// MaxPageSize bounds client-requested page sizes.
const MaxPageSize = 5000

// Server exposes a route server through the HTTP JSON API. Create one
// with NewServer and mount it (it implements http.Handler).
type Server struct {
	rs  *rs.Server
	mux *http.ServeMux
}

// NewServer wraps a route server with the LG API.
func NewServer(routeServer *rs.Server) *Server {
	s := &Server{rs: routeServer, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /api/v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /api/v1/routeservers/rs1/neighbors", s.handleNeighbors)
	s.mux.HandleFunc("GET /api/v1/routeservers/rs1/neighbors/{asn}/routes/received", s.handleRoutesReceived)
	s.mux.HandleFunc("GET /api/v1/routeservers/rs1/neighbors/{asn}/routes/filtered", s.handleRoutesFiltered)
	s.mux.HandleFunc("GET /api/v1/routeservers/rs1/neighbors/{asn}/routes/not-exported", s.handleRoutesNotExported)
	s.mux.HandleFunc("GET /api/v1/routeservers/rs1/config", s.handleConfig)
	s.mux.HandleFunc("GET /api/v1/routeservers/rs1/config/raw", s.handleConfigRaw)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the client sees a truncated body.
		return
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	scheme := s.rs.Scheme()
	writeJSON(w, StatusResponse{IXP: scheme.IXP, Version: "1.0", RSASN: scheme.RSASN})
}

func (s *Server) handleNeighbors(w http.ResponseWriter, _ *http.Request) {
	peers := s.rs.Peers()
	resp := NeighborsResponse{Neighbors: make([]Neighbor, 0, len(peers))}
	for _, p := range peers {
		accepted, filtered := s.rs.RouteCounts(p.ASN)
		resp.Neighbors = append(resp.Neighbors, Neighbor{
			ASN:            p.ASN,
			Description:    p.Name,
			IPv4:           p.IPv4,
			IPv6:           p.IPv6,
			RoutesAccepted: accepted,
			RoutesFiltered: filtered,
		})
	}
	writeJSON(w, resp)
}

func (s *Server) neighborASN(w http.ResponseWriter, r *http.Request) (uint32, bool) {
	asn, err := strconv.ParseUint(r.PathValue("asn"), 10, 32)
	if err != nil {
		http.Error(w, "bad neighbor asn", http.StatusBadRequest)
		return 0, false
	}
	if !s.rs.HasPeer(uint32(asn)) {
		http.Error(w, "no such neighbor", http.StatusNotFound)
		return 0, false
	}
	return uint32(asn), true
}

func pageParams(r *http.Request) (page, size int) {
	page, _ = strconv.Atoi(r.URL.Query().Get("page"))
	if page < 0 {
		page = 0
	}
	size, _ = strconv.Atoi(r.URL.Query().Get("page_size"))
	if size <= 0 {
		size = DefaultPageSize
	}
	if size > MaxPageSize {
		size = MaxPageSize
	}
	return page, size
}

// paginate slices one page out of n items and reports the page counts.
func paginate(n, page, size int) (lo, hi, totalPages int) {
	totalPages = (n + size - 1) / size
	if totalPages == 0 {
		totalPages = 1
	}
	lo = page * size
	if lo > n || lo/size != page { // past the end, or page*size overflowed
		lo = n
	}
	hi = lo + size
	if hi > n {
		hi = n
	}
	return lo, hi, totalPages
}

// serveRoutes answers one page of a routes endpoint. list emits the
// routes of the given page and returns the listing's total; the page is
// rendered straight into a pooled buffer while list runs (possibly
// under the route server's read lock) and reaches the wire in one Write
// afterwards, so a page costs O(page size) and the lock is never held
// across the network.
func (s *Server) serveRoutes(w http.ResponseWriter, r *http.Request, list func(asn uint32, page, size int, emit func(rt *bgp.Route, filterReason string)) (total int)) {
	asn, ok := s.neighborASN(w, r)
	if !ok {
		return
	}
	page, size := pageParams(r)
	bp := pagePool.Get().(*[]byte)
	b, n := append((*bp)[:0], `{"routes":`...), 0
	total := list(asn, page, size, func(rt *bgp.Route, filterReason string) {
		b = appendAPIRoute(append(b, routeSep(n)), rt, filterReason)
		n++
	})
	_, _, pages := paginate(total, page, size)
	b = appendPageTail(b, n, page, size, pages, total)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b) // too late for a status change; the client sees a truncated body
	*bp = b
	pagePool.Put(bp)
}

// pageOffset is the first item of a page; a page number large enough
// to overflow lands past the end of any listing.
func pageOffset(page, size int) int {
	if offset := page * size; offset/size == page {
		return offset
	}
	return -1
}

func (s *Server) handleRoutesReceived(w http.ResponseWriter, r *http.Request) {
	s.serveRoutes(w, r, func(asn uint32, page, size int, emit func(*bgp.Route, string)) int {
		return s.rs.VisitAccepted(asn, pageOffset(page, size), size, func(rt *bgp.Route) { emit(rt, "") })
	})
}

func (s *Server) handleRoutesFiltered(w http.ResponseWriter, r *http.Request) {
	s.serveRoutes(w, r, func(asn uint32, page, size int, emit func(*bgp.Route, string)) int {
		return s.rs.VisitFiltered(asn, pageOffset(page, size), size, func(f *rs.FilteredRoute) { emit(&f.Route, f.Reason.String()) })
	})
}

// handleRoutesNotExported serves the routes action communities keep
// away from this neighbor — the alice-lg "not exported" view — by
// announcing peer, then prefix: the route server's export walk, a total
// order, so the pages of an unchanged table partition the view.
func (s *Server) handleRoutesNotExported(w http.ResponseWriter, r *http.Request) {
	s.serveRoutes(w, r, func(asn uint32, page, size int, emit func(*bgp.Route, string)) int {
		return s.rs.VisitNotExported(asn, pageOffset(page, size), size, func(rt *bgp.Route) { emit(rt, "") })
	})
}

func (s *Server) handleConfig(w http.ResponseWriter, _ *http.Request) {
	scheme := s.rs.Scheme()
	resp := ConfigResponse{IXP: scheme.IXP, RSASN: scheme.RSASN}
	for _, e := range scheme.RSConfigEntries() {
		resp.Communities = append(resp.Communities, CommunityConfig{
			Community:   e.Community.String(),
			Action:      e.Action.String(),
			Target:      targetLabel(e),
			Description: e.Description,
		})
	}
	writeJSON(w, resp)
}

// handleConfigRaw serves the BIRD-style configuration text — the §3
// artifact the dictionary extraction parses.
func (s *Server) handleConfigRaw(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, rsconfig.Render(s.rs.Scheme(), rsconfig.Options{}))
}

func targetLabel(e dictionary.Entry) string {
	switch e.Target {
	case dictionary.TargetAll:
		return "all"
	case dictionary.TargetPeer:
		return fmt.Sprintf("AS%d", e.TargetASN)
	default:
		return ""
	}
}

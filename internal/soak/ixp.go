// Package soak is the end-to-end chaos harness: it spins up several
// simulated IXP looking glasses as real HTTP listeners, runs the
// resumable parallel collector against all of them at once, injects
// failures mid-crawl — kills, flaky responses, neighbor outages,
// pagination shrinkage — from a seeded, reproducible schedule, and
// after every phase checks the invariants the robustness layers
// promise (degraded snapshots, checkpoints, resume, telemetry).
//
// Everything chaotic is scripted from one seed: the same Config
// reproduces the identical chaos schedule and the identical final
// snapshot bytes, so a soak failure is replayable, not anecdotal.
package soak

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/lg"
	"ixplight/internal/rs"
)

// SimIXP is one simulated IXP: a route server populated with a seeded
// workload, exposed as a looking glass on a real TCP listener. The
// route server survives kills and restarts — chaos perturbs delivery,
// never content — and the listener re-binds the same port so crawl
// targets stay valid across a kill.
type SimIXP struct {
	Name    string
	Profile ixpgen.Profile
	RS      *rs.Server

	flaky   *lg.FlakySwitch
	handler http.Handler

	mu      sync.Mutex
	addr    string // pinned after the first Start
	srv     *http.Server
	running bool
	total   int // LG requests served across all incarnations
	perASN  map[uint32]int
	killAt  int  // fire a kill once total reaches this (0 = disarmed)
	killed  bool // a kill fired since the last Restart
	// advance is the armed day change (ArmAdvance), nil once it fired;
	// advanced is its outcome.
	advance  *dayChange
	advanced error
	// rib orders LG requests around a day change: each is served under
	// the read lock, the change runs under the write lock.
	rib sync.RWMutex
}

// dayChange is one armed AdvanceServer: from day prev to day next, fired
// by the first listing page past page 0 of a neighbor in changed.
type dayChange struct {
	prev, next *collector.Snapshot
	changed    map[uint32]bool
}

// NewSimIXP generates the profile's workload at the given seed/scale,
// populates a fresh route server and wraps it with the LG API behind
// a flaky switch and a request-counting middleware. Call Start to
// begin serving.
func NewSimIXP(profile ixpgen.Profile, seed int64, scale float64) (*SimIXP, error) {
	server, err := rs.New(rs.Config{
		Scheme:       profile.Scheme,
		MaxPathLen:   64,
		ScrubActions: true,
	})
	if err != nil {
		return nil, fmt.Errorf("soak: %s: %w", profile.IXP, err)
	}
	w, err := ixpgen.Generate(profile, ixpgen.Options{Seed: seed, Scale: scale})
	if err != nil {
		return nil, fmt.Errorf("soak: %s: %w", profile.IXP, err)
	}
	if err := w.Populate(server); err != nil {
		return nil, fmt.Errorf("soak: %s: %w", profile.IXP, err)
	}
	s := &SimIXP{
		Name:    profile.IXP,
		Profile: profile,
		RS:      server,
		flaky:   lg.NewFlakySwitch(lg.NewServer(server), lg.FlakyOptions{}),
		perASN:  make(map[uint32]int),
	}
	// Admin traffic bypasses the counter and the flaky switch: chaos
	// control must stay reachable and uncounted while chaos is on.
	mux := http.NewServeMux()
	mux.Handle("/admin/", lg.AdminHandler(s.flaky))
	mux.Handle("/", s.counting(s.flaky))
	s.handler = mux
	return s, nil
}

// counting wraps the LG handler with the server-side observer the
// invariant checks reconcile against: total and per-neighbor request
// counts, and the one-shot kill trigger.
func (s *SimIXP) counting(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.total++
		asn, listing := neighborASN(r.URL.Path)
		if listing {
			s.perASN[asn]++
		}
		var victim *http.Server
		if s.killAt > 0 && s.total >= s.killAt && !s.killed {
			s.killed = true
			s.killAt = 0
			victim = s.srv
			s.running = false
		}
		var change *dayChange
		if s.advance != nil && s.advance.changed[asn] && pageOf(r) > 0 {
			change, s.advance = s.advance, nil
		}
		s.mu.Unlock()
		if victim != nil {
			// An abrupt kill, not a drain: every open connection —
			// including this request's — dies mid-flight.
			victim.Close()
			return
		}
		if change != nil {
			s.rib.Lock()
			err := ixpgen.AdvanceServer(s.RS, change.prev, change.next)
			s.rib.Unlock()
			s.mu.Lock()
			s.advanced = err
			s.mu.Unlock()
		}
		s.rib.RLock()
		defer s.rib.RUnlock()
		next.ServeHTTP(w, r)
	})
}

// ArmAdvance schedules the route server's move from day prev to day next
// (ixpgen.AdvanceServer) at one instant of a crawl: just before the LG
// serves the first listing page past page 0 of a neighbor whose routes
// next changes, so that listing moves under the walk. The change runs
// while no other request is served, so every page shows the table
// wholly before or wholly after it. Advanced reports whether it fired.
func (s *SimIXP) ArmAdvance(prev, next *collector.Snapshot) {
	was, is := routesByPeer(prev), routesByPeer(next)
	changed := map[uint32]bool{}
	for _, m := range slices.Concat(prev.Members, next.Members) {
		changed[m.ASN] = !reflect.DeepEqual(was[m.ASN], is[m.ASN])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance, s.advanced = &dayChange{prev, next, changed}, nil
}

// Advanced reports whether the armed day change fired, and its error.
func (s *SimIXP) Advanced() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advance == nil, s.advanced
}

// pageOf is a listing request's page number.
func pageOf(r *http.Request) int {
	page, _ := strconv.Atoi(r.URL.Query().Get("page"))
	return page
}

// neighborASN extracts the neighbor ASN from a routes-listing path
// (/api/v1/routeservers/<rs>/neighbors/<asn>/routes...).
func neighborASN(path string) (uint32, bool) {
	const marker = "/neighbors/"
	i := strings.Index(path, marker)
	if i < 0 {
		return 0, false
	}
	rest := path[i+len(marker):]
	j := strings.IndexByte(rest, '/')
	if j < 0 || !strings.HasPrefix(rest[j:], "/routes") {
		return 0, false
	}
	asn, err := strconv.ParseUint(rest[:j], 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(asn), true
}

// Start begins serving. The first call binds an ephemeral port; every
// later call (Restart) re-binds the same address so the crawl target
// stays valid. Re-binding retries briefly: the dying incarnation's
// socket may still be closing.
func (s *SimIXP) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return fmt.Errorf("soak: %s already running", s.Name)
	}
	addr := s.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("soak: %s listen %s: %w", s.Name, addr, err)
	}
	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: s.handler}
	s.running = true
	s.killed = false
	go s.srv.Serve(ln)
	return nil
}

// URL returns the LG base URL. Stable across restarts once started.
func (s *SimIXP) URL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return "http://" + s.addr
}

// ArmKill schedules an abrupt server kill after n more LG requests
// have been served. The trigger is one-shot; Restart re-arms nothing.
func (s *SimIXP) ArmKill(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.killAt = s.total + n
	s.killed = false
}

// Killed reports whether the armed kill has fired.
func (s *SimIXP) Killed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// Restart brings a killed (or stopped) server back on the same
// address. The route server and its content are untouched.
func (s *SimIXP) Restart() error { return s.Start() }

// Stop shuts the listener down abruptly (test teardown).
func (s *SimIXP) Stop() {
	s.mu.Lock()
	srv := s.srv
	s.running = false
	s.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Total returns the LG requests served across all incarnations
// (admin traffic excluded).
func (s *SimIXP) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// NeighborCounts returns a copy of the per-neighbor routes-request
// counts — what the server actually saw, reconciled against what the
// client claims it sent.
func (s *SimIXP) NeighborCounts() map[uint32]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint32]int, len(s.perASN))
	for asn, n := range s.perASN {
		out[asn] = n
	}
	return out
}

// SetFlaky arms (or heals, with the zero options) failure injection
// over the real admin endpoint — the same wire path an operator or
// the soak driver would use, not an in-process shortcut.
func (s *SimIXP) SetFlaky(ctx context.Context, client *http.Client, opts lg.FlakyOptions) error {
	body, err := flakyJSON(opts)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.URL()+"/admin/flaky", strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("soak: %s: arm flaky: %w", s.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("soak: %s: arm flaky: HTTP %d", s.Name, resp.StatusCode)
	}
	return nil
}

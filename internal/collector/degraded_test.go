package collector

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/lg"
	"ixplight/internal/netutil"
	"ixplight/internal/rs"
)

// degradedFixture builds a route server where each listed peer
// announces routesPer routes.
func degradedFixture(t *testing.T, peers []uint32, routesPer int) *rs.Server {
	t.Helper()
	server, err := rs.New(rs.Config{Scheme: dictionary.ProfileByName("DE-CIX")})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range peers {
		if err := server.AddPeer(rs.Peer{
			ASN: asn, Name: fmt.Sprintf("peer-%d", asn),
			AddrV4: netutil.PeerAddrV4(i + 1), IPv4: true,
		}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < routesPer; j++ {
			r := bgp.Route{
				Prefix:  netutil.SyntheticV4Prefix(i*100 + j),
				NextHop: netutil.PeerAddrV4(i + 1),
				ASPath:  bgp.ASPath{asn},
			}
			if reason, err := server.Announce(asn, r); err != nil || reason != rs.FilterNone {
				t.Fatalf("announce AS%d #%d: %v %v", asn, j, reason, err)
			}
		}
	}
	return server
}

// pathRecorder captures every request path that reaches the LG.
type pathRecorder struct {
	mu    sync.Mutex
	paths []string
}

func (p *pathRecorder) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		p.paths = append(p.paths, r.URL.Path)
		p.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

func (p *pathRecorder) containing(sub string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, path := range p.paths {
		if strings.Contains(path, sub) {
			n++
		}
	}
	return n
}

func TestCollectPartialRecordsMemberErrors(t *testing.T) {
	server := degradedFixture(t, []uint32{100, 200, 300}, 4)
	ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{
		NeighborOutage: []uint32{200},
	}))
	defer ts.Close()

	client := lg.NewClient(ts.URL, lg.ClientOptions{MaxRetries: 1, RetryBackoff: time.Millisecond})
	snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{
		Partial:         true,
		NeighborRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Partial {
		t.Error("snapshot not flagged partial")
	}
	if len(snap.Members) != 3 {
		t.Errorf("members = %d: the member list must stay complete", len(snap.Members))
	}
	if len(snap.Routes) != 8 {
		t.Errorf("routes = %d, want 8 (AS100 + AS300)", len(snap.Routes))
	}
	if len(snap.MemberErrors) != 1 {
		t.Fatalf("member errors = %+v, want exactly AS200", snap.MemberErrors)
	}
	me := snap.MemberErrors[0]
	if me.ASN != 200 || me.Stage != StageRoutes {
		t.Errorf("member error = %+v", me)
	}
	if me.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 neighbor retries)", me.Attempts)
	}
	if me.Err == "" {
		t.Error("member error must carry the cause")
	}
	if !snap.FailedMemberSet()[200] {
		t.Error("FailedMemberSet misses AS200")
	}
}

func TestStrictModeStillAbortsOnNeighborFailure(t *testing.T) {
	server := degradedFixture(t, []uint32{100, 200}, 2)
	ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{
		NeighborOutage: []uint32{100},
	}))
	defer ts.Close()
	client := lg.NewClient(ts.URL, lg.ClientOptions{MaxRetries: 0})
	if _, err := Collect(context.Background(), client, "2021-10-04"); err == nil {
		t.Error("strict mode must abort on the first neighbor failure")
	}
}

func TestErrorBudgetCircuitBreaker(t *testing.T) {
	asns := []uint32{100, 200, 300, 400, 500}
	server := degradedFixture(t, asns, 2)
	ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{
		NeighborOutage: asns, // everything fails
	}))
	defer ts.Close()

	client := lg.NewClient(ts.URL, lg.ClientOptions{MaxRetries: 0})
	snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{
		Partial:     true,
		ErrorBudget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.MemberErrors) != 5 {
		t.Fatalf("member errors = %d, want all 5 neighbors accounted for", len(snap.MemberErrors))
	}
	stages := map[string]int{}
	for _, me := range snap.MemberErrors {
		stages[me.Stage]++
	}
	if stages[StageRoutes] != 2 || stages[StageSkipped] != 3 {
		t.Errorf("stages = %v, want 2 attempted + 3 skipped after the breaker trips", stages)
	}
	// status + neighbors + exactly 2 neighbor attempts: the breaker must
	// stop the crawl from hammering a dead LG.
	if client.HTTPRequests() != 4 {
		t.Errorf("http requests = %d, want 4", client.HTTPRequests())
	}
}

func TestCheckpointRoundTripAndMismatch(t *testing.T) {
	ck := &Checkpoint{IXP: "DE-CIX", Date: "2021-10-04"}
	ck.MarkDone(100, []bgp.Route{{
		Prefix:  netutil.SyntheticV4Prefix(1),
		NextHop: netutil.PeerAddrV4(1),
		ASPath:  bgp.ASPath{100},
	}})
	ck.MarkDone(200, nil)
	path := filepath.Join(t.TempDir(), "sub", "ckpt.json")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Errorf("round trip:\n in  %+v\n out %+v", ck, got)
	}
	if set := got.DoneSet(); !set[100] || !set[200] || set[300] {
		t.Errorf("done set = %v", set)
	}
	if !got.Matches("DE-CIX", "2021-10-04") || got.Matches("DE-CIX", "2021-10-05") {
		t.Error("Matches wrong")
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want IsNotExist", err)
	}

	// A checkpoint for another crawl must be refused.
	server := degradedFixture(t, []uint32{100}, 1)
	ts := httptest.NewServer(lg.NewServer(server))
	defer ts.Close()
	client := lg.NewClient(ts.URL, lg.ClientOptions{})
	stale := &Checkpoint{IXP: "AMS-IX", Date: "2021-10-04"}
	if _, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{Checkpoint: stale}); err == nil {
		t.Error("mismatched checkpoint accepted")
	}
}

// TestEndToEndDegradedCollectionAndResume is the acceptance scenario:
// a crawl through injected 500s, 429s (with Retry-After), latency and
// one permanently-failing neighbor yields a partial snapshot that
// names exactly that neighbor; resuming from the checkpoint issues
// zero route requests for the neighbors already done.
func TestEndToEndDegradedCollectionAndResume(t *testing.T) {
	peers := []uint32{100, 200, 300}
	const routesPer = 6
	server := degradedFixture(t, peers, routesPer)
	flaky := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{
		ErrorRate:      0.2,
		RateLimitEvery: 7,
		RetryAfter:     time.Second,
		Latency:        time.Millisecond,
		NeighborOutage: []uint32{300},
		Seed:           11,
	}))
	defer flaky.Close()

	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	opts := CollectOptions{Partial: true, NeighborRetries: 1, CheckpointPath: ckpt}
	clientOpts := lg.ClientOptions{
		PageSize:       4,
		MaxRetries:     8,
		RetryBackoff:   time.Millisecond,
		MaxRetryAfter:  2 * time.Millisecond, // cap the advertised 1s for test speed
		RequestTimeout: time.Second,
	}
	client := lg.NewClient(flaky.URL, clientOpts)
	snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Partial || len(snap.MemberErrors) != 1 || snap.MemberErrors[0].ASN != 300 {
		t.Fatalf("member errors = %+v, want exactly AS300", snap.MemberErrors)
	}
	if len(snap.Routes) != 2*routesPer {
		t.Errorf("routes = %d, want %d: healthy neighbors must be complete", len(snap.Routes), 2*routesPer)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not persisted: %v", err)
	}

	// Second run: the LG has recovered; resume from the checkpoint.
	rec := &pathRecorder{}
	healthy := httptest.NewServer(rec.wrap(lg.NewServer(server)))
	defer healthy.Close()
	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = ck
	client2 := lg.NewClient(healthy.URL, clientOpts)
	snap2, err := CollectWithOptions(context.Background(), client2, "2021-10-04", opts)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Partial || len(snap2.MemberErrors) != 0 {
		t.Errorf("resumed snapshot still degraded: %+v", snap2.MemberErrors)
	}
	if len(snap2.Routes) != 3*routesPer {
		t.Errorf("resumed routes = %d, want %d", len(snap2.Routes), 3*routesPer)
	}
	// Zero requests for the neighbors the checkpoint already covers.
	for _, done := range []uint32{100, 200} {
		if n := rec.containing(fmt.Sprintf("/neighbors/%d/routes", done)); n != 0 {
			t.Errorf("AS%d re-crawled %d times despite checkpoint", done, n)
		}
	}
	if n := rec.containing("/neighbors/300/routes"); n == 0 {
		t.Error("failed neighbor AS300 was not re-attempted on resume")
	}
	// A completed crawl cleans up its resume state.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after complete crawl: %v", err)
	}
}

// TestCombinedFailureInjection crawls through error rate + rate
// limits + truncation at once; the resulting snapshot's member-error
// records must exactly explain every missing neighbor.
func TestCombinedFailureInjection(t *testing.T) {
	peers := []uint32{100, 200, 300, 400}
	const routesPer = 5
	server := degradedFixture(t, peers, routesPer)
	flaky := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{
		ErrorRate:      0.3,
		RateLimitEvery: 5,
		RetryAfter:     time.Second,
		TruncateEvery:  9,
		NeighborOutage: []uint32{200},
		Seed:           42,
	}))
	defer flaky.Close()

	client := lg.NewClient(flaky.URL, lg.ClientOptions{
		PageSize:      3,
		MaxRetries:    10,
		RetryBackoff:  time.Millisecond,
		MaxRetryAfter: 2 * time.Millisecond,
	})
	snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{
		Partial:         true,
		NeighborRetries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every announcing neighbor either contributed all its routes or is
	// recorded in MemberErrors — no silent gaps, no double-counting.
	failed := snap.FailedMemberSet()
	perPeer := map[uint32]int{}
	for _, r := range snap.Routes {
		perPeer[r.PeerAS()]++
	}
	for _, asn := range peers {
		switch {
		case failed[asn] && perPeer[asn] > 0:
			t.Errorf("AS%d both failed and contributed %d routes", asn, perPeer[asn])
		case !failed[asn] && perPeer[asn] != routesPer:
			t.Errorf("AS%d: %d routes, want %d or a member-error record", asn, perPeer[asn], routesPer)
		}
	}
	if !failed[200] {
		t.Error("the permanently-broken AS200 must be recorded")
	}
	if snap.Partial != (len(snap.MemberErrors) > 0) {
		t.Error("Partial flag inconsistent with MemberErrors")
	}
}

// TestPartialSnapshotRoundTrip ensures the degraded-collection fields
// survive the codec.
func TestPartialSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	s.Partial = true
	s.MemberErrors = []MemberError{
		{ASN: 300, Stage: StageRoutes, Err: "lg: status 500", Attempts: 3},
		{ASN: 400, Stage: StageSkipped, Err: "error budget exhausted"},
	}
	s.Normalize()
	t.Run(CodecBinary.String(), func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, s, CodecBinary); err != nil {
			t.Fatal(err)
		}
		got, err := decodeBinarySnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Errorf("round trip mismatch:\n in  %+v\n out %+v", s, got)
		}
	})
}

// TestCollectAllDegradedTargets drives the multi-IXP path with one
// healthy, one degraded, and one dead target.
func TestCollectAllDegradedTargets(t *testing.T) {
	healthySrv := degradedFixture(t, []uint32{100}, 2)
	healthy := httptest.NewServer(lg.NewServer(healthySrv))
	defer healthy.Close()
	degradedSrv := degradedFixture(t, []uint32{100, 200}, 2)
	degraded := httptest.NewServer(lg.Flaky(lg.NewServer(degradedSrv), lg.FlakyOptions{
		NeighborOutage: []uint32{200},
	}))
	defer degraded.Close()

	faultOpts := CollectOptions{Partial: true}
	targets := []Target{
		{Name: "OK", URL: healthy.URL, Collect: faultOpts},
		{Name: "DEGRADED", URL: degraded.URL,
			Options: lg.ClientOptions{MaxRetries: 1, RetryBackoff: time.Millisecond},
			Collect: faultOpts},
		{Name: "DEAD", URL: "http://127.0.0.1:1", Collect: faultOpts},
	}
	results := CollectAll(context.Background(), targets, "2021-10-04")
	if results[0].Err != nil || results[0].Partial {
		t.Errorf("healthy: %+v", results[0])
	}
	if results[1].Err != nil || !results[1].Partial || results[1].Snapshot == nil {
		t.Fatalf("degraded target: err=%v partial=%v", results[1].Err, results[1].Partial)
	}
	if got := results[1].Snapshot.MemberErrors; len(got) != 1 || got[0].ASN != 200 {
		t.Errorf("degraded target member errors = %+v, want exactly AS200", got)
	}
	if results[2].Err == nil || results[2].Snapshot != nil {
		t.Error("dead target succeeded")
	}
}

package collector

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ixplight/internal/lg"
)

// snapshotBytes serialises a snapshot deterministically so tests can
// assert byte-identical collections.
func snapshotBytes(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s, CodecBinary); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// equivalenceWorkerCounts is the acceptance matrix: sequential, a
// small pool, and one worker per CPU.
func equivalenceWorkerCounts() []int {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	if counts[2] < 2 {
		counts[2] = 2
	}
	return counts
}

// TestParallelCollectEquivalenceHealthy pins the tentpole contract:
// for a healthy LG the Normalize()d snapshot is byte-identical for
// every worker count. Run with -race.
func TestParallelCollectEquivalenceHealthy(t *testing.T) {
	peers := []uint32{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100, 1200}
	server := degradedFixture(t, peers, 5)
	var want []byte
	for _, workers := range equivalenceWorkerCounts() {
		ts := httptest.NewServer(lg.NewServer(server))
		client := lg.NewClient(ts.URL, lg.ClientOptions{PageSize: 3, MaxInFlight: workers})
		snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{
			NeighborParallelism: workers,
		})
		ts.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if snap.Partial {
			t.Fatalf("workers=%d: healthy crawl came back partial", workers)
		}
		got := snapshotBytes(t, snap)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("workers=%d: snapshot differs from sequential crawl", workers)
		}
	}
}

// TestParallelCollectEquivalenceFlaky is the degraded variant: a
// flaky LG (transient 500s, rate limits, truncation) plus two
// permanently-broken neighbors must yield byte-identical partial
// snapshots for every worker count — transient failures are retried
// through, permanent ones land in MemberErrors deterministically.
// Run with -race.
func TestParallelCollectEquivalenceFlaky(t *testing.T) {
	peers := []uint32{100, 200, 300, 400, 500, 600, 700, 800}
	server := degradedFixture(t, peers, 4)
	flakyOpts := lg.FlakyOptions{
		ErrorRate:      0.15,
		RateLimitEvery: 11,
		RetryAfter:     time.Second,
		TruncateEvery:  13,
		NeighborOutage: []uint32{300, 600},
		Seed:           7,
	}
	var want []byte
	for _, workers := range equivalenceWorkerCounts() {
		ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), flakyOpts))
		client := lg.NewClient(ts.URL, lg.ClientOptions{
			PageSize:      3,
			MaxInFlight:   workers,
			MaxRetries:    20,
			RetryBackoff:  time.Millisecond,
			MaxBackoff:    2 * time.Millisecond,
			MaxRetryAfter: 2 * time.Millisecond,
		})
		snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{
			Partial:             true,
			NeighborRetries:     2,
			NeighborParallelism: workers,
		})
		ts.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !snap.Partial || len(snap.MemberErrors) != 2 {
			t.Fatalf("workers=%d: member errors = %+v, want exactly the two outage neighbors", workers, snap.MemberErrors)
		}
		if snap.MemberErrors[0].ASN != 300 || snap.MemberErrors[1].ASN != 600 {
			t.Fatalf("workers=%d: member errors = %+v", workers, snap.MemberErrors)
		}
		got := snapshotBytes(t, snap)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("workers=%d: partial snapshot differs from sequential crawl", workers)
		}
	}
}

// TestParallelBudgetTripsInNeighborOrder forces failures to complete
// LAST: the two leading neighbors are broken and slow, the healthy
// tail is fast, so a parallel crawl sees successes stream in before
// either failure lands. The budget must still trip exactly where the
// sequential crawl trips — after the two leading failures — and the
// already-crawled healthy routes must be demoted to skipped, leaving
// the snapshot byte-identical to the sequential one.
func TestParallelBudgetTripsInNeighborOrder(t *testing.T) {
	peers := []uint32{100, 200, 300, 400, 500}
	server := degradedFixture(t, peers, 3)
	flakyOpts := lg.FlakyOptions{
		NeighborOutage: []uint32{100, 200},
		NeighborLatency: map[uint32]time.Duration{
			100: 40 * time.Millisecond,
			200: 40 * time.Millisecond,
		},
	}
	opts := CollectOptions{Partial: true, ErrorBudget: 2}

	run := func(workers int) *Snapshot {
		t.Helper()
		ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), flakyOpts))
		defer ts.Close()
		client := lg.NewClient(ts.URL, lg.ClientOptions{MaxInFlight: workers})
		o := opts
		o.NeighborParallelism = workers
		snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return snap
	}

	seq := run(1)
	par := run(4)
	if !bytes.Equal(snapshotBytes(t, seq), snapshotBytes(t, par)) {
		t.Error("parallel snapshot differs from sequential under a tripped budget")
	}
	stages := map[string]int{}
	for _, me := range par.MemberErrors {
		stages[me.Stage]++
	}
	if stages[StageRoutes] != 2 || stages[StageSkipped] != 3 {
		t.Errorf("stages = %v, want 2 failed + 3 skipped", stages)
	}
	if len(par.Routes) != 0 {
		t.Errorf("routes = %d, want 0: successes past the trip point must be demoted", len(par.Routes))
	}
	for i, want := range []uint32{100, 200, 300, 400, 500} {
		if par.MemberErrors[i].ASN != want {
			t.Fatalf("member error %d = AS%d, want AS%d (neighbor order)", i, par.MemberErrors[i].ASN, want)
		}
	}
}

// TestParallelCheckpointResume round-trips checkpoint/resume with a
// worker pool: the first (degraded) crawl checkpoints every healthy
// neighbor, the resumed crawl issues zero route requests for them and
// completes the snapshot. Run with -race to exercise the serialized
// checkpoint writer.
func TestParallelCheckpointResume(t *testing.T) {
	peers := []uint32{100, 200, 300, 400, 500, 600}
	const routesPer = 4
	server := degradedFixture(t, peers, routesPer)
	flaky := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{
		NeighborOutage: []uint32{400},
	}))
	defer flaky.Close()

	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	opts := CollectOptions{
		Partial:             true,
		CheckpointPath:      ckpt,
		NeighborParallelism: 4,
	}
	client := lg.NewClient(flaky.URL, lg.ClientOptions{
		MaxInFlight: 4, MaxRetries: 1, RetryBackoff: time.Millisecond,
	})
	snap, err := CollectWithOptions(context.Background(), client, "2021-10-04", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Partial || len(snap.MemberErrors) != 1 || snap.MemberErrors[0].ASN != 400 {
		t.Fatalf("member errors = %+v, want exactly AS400", snap.MemberErrors)
	}
	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Done) != 5 || len(ck.Routes) != 5*routesPer {
		t.Fatalf("checkpoint: %d done / %d routes, want 5 / %d", len(ck.Done), len(ck.Routes), 5*routesPer)
	}
	// The resume run below marks further neighbors done on this same
	// Checkpoint; remember who was done beforehand.
	doneBefore := append([]uint32(nil), ck.Done...)

	// The LG recovers; resume with the same worker pool.
	rec := &pathRecorder{}
	healthy := httptest.NewServer(rec.wrap(lg.NewServer(server)))
	defer healthy.Close()
	opts.Checkpoint = ck
	client2 := lg.NewClient(healthy.URL, lg.ClientOptions{MaxInFlight: 4})
	snap2, err := CollectWithOptions(context.Background(), client2, "2021-10-04", opts)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Partial || len(snap2.Routes) != len(peers)*routesPer {
		t.Fatalf("resumed snapshot: partial=%v routes=%d, want complete %d",
			snap2.Partial, len(snap2.Routes), len(peers)*routesPer)
	}
	for _, done := range doneBefore {
		if n := rec.containing(fmt.Sprintf("/neighbors/%d/routes", done)); n != 0 {
			t.Errorf("AS%d re-crawled %d times despite checkpoint", done, n)
		}
	}
	if n := rec.containing("/neighbors/400/routes"); n == 0 {
		t.Error("failed neighbor AS400 was not re-attempted on resume")
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after complete crawl: %v", err)
	}
}

// TestParallelStrictModeReportsEarliestFailure: without Partial the
// parallel crawl must abort like the sequential one and name the
// earliest failing neighbor, not whichever failure completed first.
func TestParallelStrictModeReportsEarliestFailure(t *testing.T) {
	peers := []uint32{100, 200, 300, 400}
	server := degradedFixture(t, peers, 2)
	ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{
		NeighborOutage: []uint32{200, 300},
		NeighborLatency: map[uint32]time.Duration{
			200: 30 * time.Millisecond, // the earlier failure lands later
		},
	}))
	defer ts.Close()
	client := lg.NewClient(ts.URL, lg.ClientOptions{MaxInFlight: 4})
	_, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{
		NeighborParallelism: 4,
	})
	if err == nil {
		t.Fatal("strict parallel crawl must abort on neighbor failure")
	}
	if want := "routes of AS200"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("err = %v, want the earliest failing neighbor (%s)", err, want)
	}
}

// TestOneWorkerCrawlStopsAtStrictFailure pins the single-connection
// crawl: at one worker a strict crawl claims no neighbor after the
// first failure, so a dead LG sees status + neighbors + the requests up
// to and including that failure, and the checkpoint holds exactly the
// neighbors that completed before it.
func TestOneWorkerCrawlStopsAtStrictFailure(t *testing.T) {
	for _, tc := range []struct {
		outage   uint32
		requests int
		done     []uint32
	}{
		{outage: 100, requests: 2 + 1},                      // the first neighbor fails
		{outage: 200, requests: 2 + 2, done: []uint32{100}}, // one completes, then the outage
	} {
		server := degradedFixture(t, []uint32{100, 200, 300}, 2)
		ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{
			NeighborOutage: []uint32{tc.outage},
		}))
		ckpt := filepath.Join(t.TempDir(), "ckpt.json")
		client := lg.NewClient(ts.URL, lg.ClientOptions{MaxRetries: 0})
		_, err := CollectWithOptions(context.Background(), client, "2021-10-04", CollectOptions{
			NeighborParallelism: 1,
			CheckpointPath:      ckpt,
		})
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("routes of AS%d", tc.outage)) {
			t.Fatalf("outage AS%d: err = %v, want the strict crawl to abort there", tc.outage, err)
		}
		if got := client.HTTPRequests(); got != tc.requests {
			t.Errorf("outage AS%d: %d HTTP requests, want %d (status + neighbors + up to the failure)", tc.outage, got, tc.requests)
		}
		ck, err := LoadCheckpoint(ckpt)
		switch {
		case len(tc.done) == 0:
			if !os.IsNotExist(err) {
				t.Errorf("outage AS%d: a checkpoint was saved with nothing done (err %v)", tc.outage, err)
			}
		case err != nil:
			t.Errorf("outage AS%d: %v", tc.outage, err)
		case !slices.Equal(ck.Done, tc.done):
			t.Errorf("outage AS%d: checkpoint done = %v, want %v", tc.outage, ck.Done, tc.done)
		}
	}
}

// TestCheckpointWriterSerializes hammers markDone from many
// goroutines (run with -race): every update must land and the
// persisted checkpoint must decode cleanly.
func TestCheckpointWriterSerializes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	w := &checkpointWriter{prog: &Checkpoint{IXP: "X", Date: "2021-10-04"}, path: path}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := w.markDone(uint32(1000+i), nil); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Done) != 16 {
		t.Errorf("done = %d, want 16", len(ck.Done))
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ixplight/internal/ixpd"
)

const (
	// serveQueries is the distinct query universe; it fits the
	// daemon's response cache (512 entries) eight times over.
	serveQueries = 64
	// serveClients is the number of client goroutines, one connection
	// each: the machine's two cores.
	serveClients = 2
	// serveRound is the requests in one op. A round, not a request, is
	// the op: a ~40 µs quantity cannot be gated on a shared VM.
	serveRound = 1000
	// revalidatePct of a warm round's requests carry If-None-Match.
	revalidatePct = 25
	// daemonRequestTimeout is the daemon's RequestTimeout in every
	// workload. Each compute arms a time.After(RequestTimeout) for its
	// admission wait that stays on the heap until it fires, so after
	// cold rounds live heap holds one timer per request of the last
	// RequestTimeout — at the default 15 s and ~10 k cold requests a
	// second that is as much again as the dataset and the caches
	// together, and as unsteady as the request rate. At 2 s the cost
	// still shows in serve-cold's live_heap_mb, about a tenth of it;
	// the traced run measures it per request
	// (ixpd.cold_held_bytes_per_req).
	daemonRequestTimeout = 2 * time.Second
)

// daemon is an ixpd in dir mode behind a real loopback listener, with
// polling off — the fixture the serve and reload workloads share.
type daemon struct {
	srv      *ixpd.Server
	listener *listener
}

func startDaemon(h *harness, spec datasetSpec, dir string) (*daemon, error) {
	srv := ixpd.New(ixpd.Config{
		Profiles:       spec.profiles,
		SnapshotDir:    dir,
		Seed:           shapeSeed,
		Scale:          spec.scale,
		ReloadInterval: -1,
		RequestTimeout: daemonRequestTimeout,
	})
	if err := h.stage("ixpd.load", srv.Load); err != nil {
		return nil, err
	}
	ln, err := listen(traceHandler(h.tr, "ixpd.handler", handlerClass, srv.Handler()))
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, listener: ln}, nil
}

func (d *daemon) close() {
	if d != nil {
		d.listener.close()
	}
}

// handlerClass names a served request by what the daemon did for it.
func handlerClass(r *http.Request, code int) string {
	switch {
	case code == http.StatusNotModified:
		return "304"
	case code != http.StatusOK:
		return strconv.Itoa(code)
	case strings.Contains(r.URL.RawQuery, "nonce="):
		return "cold"
	default:
		return "warm"
	}
}

// requestClass names a client round trip by what the client asked for.
func requestClass(r *http.Request) string {
	switch {
	case r.Header.Get("If-None-Match") != "":
		return "http.rt.304"
	case strings.Contains(r.URL.RawQuery, "nonce="):
		return "http.rt.cold." + endpointClass(r.URL.Path)
	default:
		return "http.rt.warm"
	}
}

// endpointClass buckets a /v1 path the way the per-layer metrics do.
func endpointClass(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/experiments/"):
		return "experiment"
	case strings.HasPrefix(path, "/v1/series/"):
		return "series"
	case strings.HasPrefix(path, "/v1/meta"):
		return "meta"
	default:
		return "lookup"
	}
}

// query is one member of the universe with its primed response.
type query struct {
	url  string
	sep  string // "?" or "&": how a nonce parameter is appended
	etag string
	body []byte
}

// fetchMeta GETs and decodes /v1/meta.
func fetchMeta(client *http.Client, base string) (*ixpd.MetaDoc, error) {
	resp, err := client.Get(base + "/v1/meta")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/meta: %s", resp.Status)
	}
	var meta ixpd.MetaDoc
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return nil, fmt.Errorf("decode /v1/meta: %w", err)
	}
	return &meta, nil
}

// buildUniverse derives the query universe from /v1/meta, from the same
// endpoint classes internal/ixpd/loadgen.go uses. Every experiment
// (minus visibility), every series and /v1/meta are always in it —
// those differ in cost by an order of magnitude, so sampling them would
// make a round's cost a draw of the seed — and the seed picks the
// per-AS and per-community lookups (3:2, loadgen's weights) that fill
// it up to n. visibility is left out: at ~100× any other query it
// would be most of a cold round and hide the serving pipeline; analyze
// covers it.
func buildUniverse(client *http.Client, base string, rng *rand.Rand, n int) ([]query, error) {
	meta, err := fetchMeta(client, base)
	if err != nil {
		return nil, err
	}
	urls := []string{"/v1/meta"}
	for _, name := range meta.Experiments {
		if name != "visibility" {
			urls = append(urls, "/v1/experiments/"+name)
		}
	}
	var as, community []string
	for _, ixp := range meta.IXPs {
		urls = append(urls, "/v1/series/"+ixp.IXP)
		for _, asn := range ixp.SampleASNs {
			as = append(as, fmt.Sprintf("/v1/as/%d?ixp=%s", asn, ixp.IXP))
		}
		for _, c := range ixp.SampleCommunities {
			community = append(community, "/v1/community/"+c)
		}
	}
	rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
	rng.Shuffle(len(community), func(i, j int) { community[i], community[j] = community[j], community[i] })
	seen := make(map[string]bool)
	var out []query
	add := func(u string) {
		if seen[u] || len(out) >= n {
			return
		}
		seen[u] = true
		q := query{url: u, sep: "?"}
		if strings.Contains(u, "?") {
			q.sep = "&"
		}
		out = append(out, q)
	}
	for _, u := range urls {
		add(u)
	}
	for len(out) < n && len(as)+len(community) > 0 {
		for k := 0; k < 3 && len(as) > 0; k++ {
			add(as[0])
			as = as[1:]
		}
		for k := 0; k < 2 && len(community) > 0; k++ {
			add(community[0])
			community = community[1:]
		}
	}
	return out, nil
}

// prime issues every query once and records its body and ETag.
func prime(client *http.Client, base string, qs []query) error {
	for i := range qs {
		resp, err := client.Get(base + qs[i].url)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
			return fmt.Errorf("prime %s: %s, etag %q", qs[i].url, resp.Status, resp.Header.Get("ETag"))
		}
		qs[i].body, qs[i].etag = body, resp.Header.Get("ETag")
	}
	return nil
}

// serveWorkload is the daemon under a closed loop of two clients. In
// warm mode every request is a cache hit or a 304; in cold mode every
// request carries a fresh nonce, so it misses ETag and cache and takes
// flight → admission → compute → marshal → cache put, with FIFO
// eviction live.
type serveWorkload struct {
	cold bool
	spec datasetSpec

	ds      *dataset
	d       *daemon
	clients [serveClients]*http.Client
	rng     *rand.Rand
	qs      []query
	nonce   atomic.Int64

	// the next round's plan, drawn in prepare
	picks      [serveRound]uint16
	revalidate [serveRound]bool
	plainGETs  int

	computesBefore int64
	// run totals for the whole-run checks
	rounds, plainTotal int
	computesAtStart    int64
}

func newServeWorkload(sz size, cold bool) *serveWorkload {
	return &serveWorkload{cold: cold, spec: bigFourSpec(sz)}
}

func (w *serveWorkload) setup(h *harness) (err error) {
	w.rng = rand.New(rand.NewSource(h.seed))
	if w.ds, err = buildDataset(h, w.spec); err != nil {
		return err
	}
	if w.d, err = startDaemon(h, w.spec, w.ds.dir); err != nil {
		return err
	}
	h.tick()
	for i := range w.clients {
		w.clients[i] = newHTTPClient(h.tr, 1, requestClass)
	}
	if w.qs, err = buildUniverse(w.clients[0], w.d.listener.base, w.rng, serveQueries); err != nil {
		return err
	}
	if err := prime(w.clients[0], w.d.listener.base, w.qs); err != nil {
		return err
	}
	// Open the second connection too, so no op pays a dial.
	if _, err := fetchMeta(w.clients[1], w.d.listener.base); err != nil {
		return err
	}
	w.rounds, w.plainTotal = 0, 0
	w.computesAtStart = w.d.srv.Computes()
	return nil
}

func (w *serveWorkload) prepare(*harness, int) error {
	w.plainGETs = 0
	for i := range w.picks {
		w.picks[i] = uint16(w.rng.Intn(len(w.qs)))
		w.revalidate[i] = !w.cold && w.rng.Intn(100) < revalidatePct
		if !w.revalidate[i] {
			w.plainGETs++
		}
	}
	w.computesBefore = w.d.srv.Computes()
	return nil
}

func (w *serveWorkload) op(h *harness, _ int) error {
	return h.stage("ixpd.round", func() error {
		var next atomic.Int64
		var firstErr atomic.Pointer[error]
		var wg sync.WaitGroup
		for _, c := range w.clients {
			wg.Add(1)
			go func(c *http.Client) {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					n := int(next.Add(1)) - 1
					if n >= serveRound {
						return
					}
					if err := w.request(c, &buf, n); err != nil {
						firstErr.CompareAndSwap(nil, &err)
					}
				}
			}(c)
		}
		wg.Wait()
		if p := firstErr.Load(); p != nil {
			return *p
		}
		return nil
	})
}

// request issues request n of the round and checks the response.
func (w *serveWorkload) request(c *http.Client, buf *bytes.Buffer, n int) error {
	q := &w.qs[w.picks[n]]
	url := w.d.listener.base + q.url
	if w.cold {
		url += q.sep + "nonce=" + strconv.FormatInt(w.nonce.Add(1), 10)
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if w.revalidate[n] {
		req.Header.Set("If-None-Match", q.etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	switch {
	case w.revalidate[n]:
		if resp.StatusCode != http.StatusNotModified || buf.Len() != 0 || resp.Header.Get("ETag") != q.etag {
			return fmt.Errorf("%s revalidation: %s, %d body bytes, etag %q want %q",
				q.url, resp.Status, buf.Len(), resp.Header.Get("ETag"), q.etag)
		}
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("%s: %s", q.url, resp.Status)
	case !bytes.Equal(buf.Bytes(), q.body):
		return fmt.Errorf("%s: body differs from the primed body", q.url)
	}
	return nil
}

func (w *serveWorkload) verify(*harness, int) error {
	w.rounds++
	w.plainTotal += w.plainGETs
	got, want := w.d.srv.Computes()-w.computesBefore, int64(0)
	if w.cold {
		want = serveRound
	}
	if got != want {
		return fmt.Errorf("round ran %d computes, want %d", got, want)
	}
	return nil
}

func (w *serveWorkload) finish(*harness) error { return nil }

func (w *serveWorkload) release() {} // no staging data to drop

func (w *serveWorkload) teardown() {
	w.d.close()
	for _, c := range w.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	w.ds.remove()
	w.d, w.ds, w.qs = nil, nil, nil
}

func (w *serveWorkload) probe(h *harness, m metricSet) error {
	computes := float64(w.d.srv.Computes() - w.computesAtStart)
	if w.rounds > 0 {
		m.set("ixpd.computes_per_round", computes/float64(w.rounds), "count")
	}
	if !w.cold && w.plainTotal > 0 {
		m.set("ixpd.cache_hit_ratio", 1-computes/float64(w.plainTotal), "ratio")
	}
	probeDaemon(h, m, w.d.srv, w.qs[0].url)
	if w.cold {
		probeColdHeld(h, m, w.d.srv, func() string {
			return w.qs[0].url + w.qs[0].sep + "nonce=" + strconv.FormatInt(w.nonce.Add(1), 10)
		})
	}
	return probeDataset(h, m, w.ds.dir, w.spec.profiles[0])
}

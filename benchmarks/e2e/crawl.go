package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/lg"
	"ixplight/internal/rs"
)

// crawlWorkload is the collection side: one IXP's route server behind
// the looking-glass API on a real loopback listener, crawled, delta
// encoded against yesterday and written atomically — the
// `collect -codec delta` path. Between ops the harness withdraws 1 %
// of the accepted routes and re-announces the previous op's withdrawn
// set with a new MED, so every day differs from the one before.
type crawlWorkload struct {
	profile ixpgen.Profile
	scale   float64

	rng      *rand.Rand
	server   *rs.Server
	routes   []bgp.Route // everything the RS accepted at populate time
	live     []int       // indices into routes currently announced
	out      []int       // indices withdrawn by the previous prepare
	listener *listener
	hc       *http.Client
	client   *lg.Client
	dir      string

	enc     *collector.DeltaEncoder
	applier *collector.DeltaApplier // the harness's own chain, for verification

	// per-op outputs handed from op to verify
	crawled   *collector.Snapshot
	deltaPath string
	stats     collector.CrawlStats
}

func newCrawlWorkload(sz size) *crawlWorkload {
	w := &crawlWorkload{profile: *ixpgen.ProfileByName("AMS-IX"), scale: 0.02}
	if sz == sizeToy {
		w.scale = 0.003
	}
	return w
}

// listener is one http.Server on an ephemeral loopback port.
type listener struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func listen(handler http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv:  &http.Server{Handler: handler},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to exit.
func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// newHTTPClient builds a client that keeps at most conns connections
// to the server, traced when the tracer is on.
func newHTTPClient(t *tracer, conns int, name func(*http.Request) string) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: wrapTransport(t, name, tr), Timeout: 30 * time.Second}
}

func (w *crawlWorkload) setup(h *harness) error {
	w.rng = rand.New(rand.NewSource(h.seed))
	var wl *ixpgen.Workload
	if err := h.stage("ixpgen.generate", func() (err error) {
		wl, err = ixpgen.Generate(w.profile, ixpgen.Options{Seed: shapeSeed, Scale: w.scale})
		return err
	}); err != nil {
		return err
	}
	h.genDays = 1
	h.tick()
	server, err := rs.New(rs.Config{Scheme: w.profile.Scheme, MaxPathLen: 64, ScrubActions: true})
	if err != nil {
		return err
	}
	if err := h.stage("rs.populate", func() error { return wl.Populate(server) }); err != nil {
		return err
	}
	h.tick()
	w.server = server
	w.routes = wl.Routes
	w.live = make([]int, len(w.routes))
	for i := range w.live {
		w.live[i] = i
	}
	w.out = nil

	handler := traceHandler(h.tr, "lg.handler", func(*http.Request, int) string { return "" }, lg.NewServer(server))
	if w.listener, err = listen(handler); err != nil {
		return err
	}
	w.hc = newHTTPClient(h.tr, 2, func(*http.Request) string { return "lg.roundtrip" })
	w.client = lg.NewClient(w.listener.base, lg.ClientOptions{
		MaxInFlight: 2,
		MaxRetries:  3,
		HTTPClient:  w.hc,
	})
	if w.dir, err = h.mkWorkdir("crawl"); err != nil {
		return err
	}

	// Day 0: the chain base, crawled like every later day.
	base, err := w.collect(crawlDate(0))
	if err != nil {
		return err
	}
	h.tick()
	if _, err := collector.SaveSnapshot(w.dir, base, collector.CodecBinary); err != nil {
		return err
	}
	if w.enc, err = collector.NewDeltaEncoder(base); err != nil {
		return err
	}
	w.applier, err = collector.NewDeltaApplier(base)
	return err
}

func crawlDate(day int) string {
	return ixpgen.DefaultStart.AddDate(0, 0, day).Format("2006-01-02")
}

func (w *crawlWorkload) collect(date string) (*collector.Snapshot, error) {
	return collector.CollectWithOptions(context.Background(), w.client, date, collector.CollectOptions{
		NeighborParallelism: 2,
		Stats:               &w.stats,
	})
}

// prepare churns the route server: re-announce what the previous op
// withdrew (new MED), then withdraw a fresh 1 %.
func (w *crawlWorkload) prepare(_ *harness, _ int) error {
	for _, idx := range w.out {
		r := w.routes[idx]
		r.MED = uint32(w.rng.Intn(1000))
		reason, err := w.server.Announce(r.PeerAS(), r)
		if err != nil || reason != rs.FilterNone {
			return fmt.Errorf("re-announce %s: reason %v err %v", r.Prefix, reason, err)
		}
		w.live = append(w.live, idx)
	}
	w.out = w.out[:0]
	n := max(1, len(w.routes)/100)
	for k := 0; k < n && len(w.live) > 1; k++ {
		j := w.rng.Intn(len(w.live))
		idx := w.live[j]
		w.live[j] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		r := &w.routes[idx]
		w.server.Withdraw(r.PeerAS(), r.Prefix)
		w.out = append(w.out, idx)
	}
	return nil
}

func (w *crawlWorkload) op(h *harness, i int) error {
	date := crawlDate(i + 1)
	var snap *collector.Snapshot
	if err := h.stage("collector.collect", func() (err error) {
		snap, err = w.collect(date)
		return err
	}); err != nil {
		return err
	}
	var buf []byte
	if err := h.stage("collector.delta_encode", func() (err error) {
		buf, err = w.enc.Encode(snap)
		return err
	}); err != nil {
		return err
	}
	w.crawled = snap
	w.deltaPath = filepath.Join(w.dir, fmt.Sprintf("%s-%s%s", snap.IXP, snap.Date, collector.DeltaExt))
	return h.stage("collector.delta_write", func() error {
		return collector.AtomicWrite(w.deltaPath, func(out io.Writer) error {
			_, err := out.Write(buf)
			return err
		})
	})
}

// verify re-reads the written delta, applies it to the harness's own
// copy of yesterday and demands the crawled snapshot back, and checks
// the crawl saw exactly what the route server holds.
func (w *crawlWorkload) verify(_ *harness, _ int) error {
	if w.crawled.Partial || w.stats.Retries != 0 {
		return fmt.Errorf("crawl degraded: partial=%v retries=%d", w.crawled.Partial, w.stats.Retries)
	}
	st := w.server.Stats()
	if got, want := len(w.crawled.Routes), st.RoutesV4+st.RoutesV6; got != want || want != len(w.live) {
		return fmt.Errorf("crawled %d routes, route server holds %d, harness expects %d", got, want, len(w.live))
	}
	dr, err := collector.OpenDelta(w.deltaPath)
	if err != nil {
		return err
	}
	applied, err := w.applier.Apply(dr)
	if err != nil {
		return err
	}
	if collector.SnapshotDigest(applied) != collector.SnapshotDigest(w.crawled) {
		return fmt.Errorf("delta %s does not reproduce the crawled snapshot", filepath.Base(w.deltaPath))
	}
	return nil
}

func (w *crawlWorkload) finish(*harness) error { return nil }

func (w *crawlWorkload) release() {
	w.applier, w.crawled = nil, nil
}

func (w *crawlWorkload) teardown() {
	if w.listener != nil {
		w.listener.close()
		w.listener = nil
	}
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
	removeAll(w.dir)
	w.server, w.client, w.enc, w.applier, w.crawled = nil, nil, nil, nil, nil
	w.routes, w.live, w.out = nil, nil, nil
}

func (w *crawlWorkload) probe(h *harness, m metricSet) error {
	return probeDataset(h, m, w.dir, w.profile)
}

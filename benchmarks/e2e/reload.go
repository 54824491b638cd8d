package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ixplight/internal/ixpd"
)

// probeInterval spaces the background probe's requests.
const probeInterval = 10 * time.Millisecond

// reloadWorkload is freshness under a live daemon: one new collection
// day lands in the dataset directory, the daemon reloads, and the new
// generation answers its first queries — while a background probe on
// a second connection keeps issuing a warm query.
//
// After each op the harness (untimed) takes the day back out and
// reloads again, so every op appends one day to the same dataset and
// the op's cost does not depend on how many ops a run fits in.
type reloadWorkload struct {
	spec datasetSpec
	ds   *dataset
	d    *daemon
	hc   *http.Client

	bg *prober

	// per-op hand-off to verify
	ixp        int
	genBefore  uint64
	landed     string // path of the landed file inside the dataset dir
	metaBody   []byte
	seriesBody []byte
}

func newReloadWorkload(sz size) *reloadWorkload {
	spec := bigFourSpec(sz)
	if sz == sizeFull {
		spec.days = 21
	}
	spec.staged = 1
	return &reloadWorkload{spec: spec}
}

// probeSample is one background probe request.
type probeSample struct {
	start, end time.Time
	ok         bool
}

// prober issues one GET every probeInterval on its own connection
// until stopped.
type prober struct {
	client *http.Client
	url    string
	stop   chan struct{}
	done   chan struct{}

	mu      sync.Mutex
	samples []probeSample
}

func startProber(client *http.Client, url string) *prober {
	p := &prober{client: client, url: url, stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *prober) loop() {
	defer close(p.done)
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		s := probeSample{start: time.Now()}
		if resp, err := p.client.Get(p.url); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			s.ok = resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified
		}
		s.end = time.Now()
		p.mu.Lock()
		p.samples = append(p.samples, s)
		p.mu.Unlock()
	}
}

// close stops the probe loop and waits for it.
func (p *prober) close() {
	close(p.stop)
	<-p.done
}

// failed counts the requests that saw anything but 200/304.
func failed(samples []probeSample) int {
	bad := 0
	for _, s := range samples {
		if !s.ok {
			bad++
		}
	}
	return bad
}

func (p *prober) snapshot() []probeSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]probeSample(nil), p.samples...)
}

func (w *reloadWorkload) setup(h *harness) (err error) {
	if w.ds, err = buildDataset(h, w.spec); err != nil {
		return err
	}
	if w.d, err = startDaemon(h, w.spec, w.ds.dir); err != nil {
		return err
	}
	h.tick()
	w.hc = newHTTPClient(h.tr, 1, func(*http.Request) string { return "http.rt.first_query" })
	probeClient := newHTTPClient(nil, 1, nil)
	w.bg = startProber(probeClient, w.d.listener.base+"/v1/experiments/summary")
	return nil
}

func (w *reloadWorkload) prepare(h *harness, i int) error {
	// Round-robin over the IXPs, starting where the seed says.
	w.ixp = (i + int(h.seed&0xffff)) % len(w.spec.profiles)
	w.genBefore, _ = w.d.srv.Generation()
	return nil
}

func (w *reloadWorkload) get(path string) ([]byte, error) {
	resp, err := w.hc.Get(w.d.listener.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (w *reloadWorkload) op(h *harness, _ int) error {
	name := w.ds.stagedFiles[w.ixp][0]
	w.landed = filepath.Join(w.ds.dir, name)
	if err := h.stage("reload.land", func() error {
		return os.Rename(filepath.Join(w.ds.stageDir, name), w.landed)
	}); err != nil {
		return err
	}
	if err := h.stage("ixpd.reload", func() error {
		swapped, err := w.d.srv.Reload()
		if err == nil && !swapped {
			err = fmt.Errorf("reload did not swap generations")
		}
		return err
	}); err != nil {
		return err
	}
	return h.stage("ixpd.first_query", func() (err error) {
		if w.metaBody, err = w.get("/v1/meta"); err != nil {
			return err
		}
		if _, err = w.get("/v1/experiments/summary"); err != nil {
			return err
		}
		w.seriesBody, err = w.get("/v1/series/" + w.spec.profiles[w.ixp].IXP)
		return err
	})
}

// verify checks the new generation serves the landed day, then takes
// the day back out so the next op starts from the same dataset.
func (w *reloadWorkload) verify(*harness, int) error {
	err := w.checkLanded()
	if rerr := os.Rename(w.landed, filepath.Join(w.ds.stageDir, filepath.Base(w.landed))); rerr != nil {
		return rerr
	}
	if _, rerr := w.d.srv.Reload(); err == nil {
		err = rerr
	}
	return err
}

func (w *reloadWorkload) checkLanded() error {
	gen, _ := w.d.srv.Generation()
	if gen != w.genBefore+1 {
		return fmt.Errorf("generation went %d → %d, want +1", w.genBefore, gen)
	}
	var meta ixpd.MetaDoc
	if err := json.Unmarshal(w.metaBody, &meta); err != nil {
		return err
	}
	want := w.ds.stagedDates[w.ixp][0]
	ixp := w.spec.profiles[w.ixp].IXP
	listed := false
	for _, mi := range meta.IXPs {
		if mi.IXP == ixp {
			listed = mi.Latest == want && mi.Days == w.spec.days+1
		}
	}
	if !listed || meta.Generation != gen {
		return fmt.Errorf("/v1/meta (generation %d) does not list %s day %s", meta.Generation, ixp, want)
	}
	var series ixpd.SeriesDoc
	if err := json.Unmarshal(w.seriesBody, &series); err != nil {
		return err
	}
	if n := len(series.Days); n != w.spec.days+1 || series.Days[n-1].Date != want {
		return fmt.Errorf("/v1/series/%s has %d days, want %d ending %s", ixp, n, w.spec.days+1, want)
	}
	return nil
}

// finish fails the run if the probe ever saw anything but 200/304.
func (w *reloadWorkload) finish(*harness) error {
	samples := w.bg.snapshot()
	if bad := failed(samples); bad > 0 || len(samples) == 0 {
		return fmt.Errorf("background probe: %d of %d requests failed", bad, len(samples))
	}
	return nil
}

func (w *reloadWorkload) release() { w.metaBody, w.seriesBody = nil, nil }

func (w *reloadWorkload) teardown() {
	if w.bg != nil {
		w.bg.close()
		w.bg.client.CloseIdleConnections()
		w.bg = nil
	}
	w.d.close()
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
	w.ds.remove()
	w.d, w.ds = nil, nil
}

func (w *reloadWorkload) probe(h *harness, m metricSet) error {
	// How the probe fared while a reload was running: spans give the
	// reload windows, the prober its own request intervals.
	var during []float64
	samples := w.bg.snapshot()
	windows := h.tr.windows("ixpd.reload")
	for _, s := range samples {
		for _, win := range windows {
			if s.start.Before(win[1]) && s.end.After(win[0]) {
				during = append(during, ms(s.end.Sub(s.start)))
				break
			}
		}
	}
	m.set("ixpd.probe_p99_ms_during_reload", quantile(during, 0.99), "ms")
	m.set("ixpd.probe_errors", float64(failed(samples)), "count")

	// A fresh full load of the same directory, for reload_vs_full.
	full, _, _, err := h.measure(h.probeRounds(), func() error {
		return newLab(w.spec).LoadSnapshotDir(w.ds.dir)
	})
	if err != nil {
		return err
	}
	m.set("report.load_ms", full, "ms")
	probeDaemon(h, m, w.d.srv, "/v1/experiments/summary")
	return probeDataset(h, m, w.ds.dir, w.spec.profiles[0])
}

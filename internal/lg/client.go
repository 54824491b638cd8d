package lg

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/telemetry"
)

// ClientOptions tunes the LG client's politeness and resilience.
type ClientOptions struct {
	// PageSize requested from the routes endpoints (0 = server default).
	PageSize int
	// MinInterval is the minimum delay between consecutive requests —
	// the single-connection politeness the paper's §3 ethics note
	// describes (0 = no throttling).
	MinInterval time.Duration
	// MaxRetries is how many times a failed request is retried.
	MaxRetries int
	// RetryBackoff is the base backoff between retries; it doubles on
	// every attempt, with full jitter, up to MaxBackoff.
	RetryBackoff time.Duration
	// MaxBackoff caps the exponential backoff (default 5s).
	MaxBackoff time.Duration
	// RequestTimeout bounds each individual HTTP request (0 = none) so
	// a hung LG response is cut off and retried instead of stalling
	// the whole crawl.
	RequestTimeout time.Duration
	// MaxRetryAfter caps how long a server's Retry-After header is
	// honoured (default 30s), so a broken LG cannot park the crawl
	// indefinitely.
	MaxRetryAfter time.Duration
	// MaxInFlight bounds how many calls may be in flight on this
	// client at once (default 1: the §3 single-connection politeness).
	// Raising it lets a neighbor-crawl worker pool share one client;
	// the MinInterval pacer still spaces all requests globally, so a
	// parallel crawl is no less polite per-LG, just not idle between
	// responses. Calls beyond the bound fail with ErrConcurrentUse.
	MaxInFlight int
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Metrics, when set, records the client's runtime behaviour —
	// requests, retries by cause, politeness waits, per-call
	// latency — into a telemetry registry (see NewMetrics). Nil keeps
	// instrumentation off at zero cost.
	Metrics *Metrics
}

// ErrConcurrentUse is returned when a Client is entered by more
// concurrent calls than ClientOptions.MaxInFlight allows (more than
// one, by default), which would break the §3 politeness contract.
// Raise MaxInFlight — or create one Client per goroutine — instead.
var ErrConcurrentUse = errors.New("lg: concurrent use of Client beyond MaxInFlight")

// Client crawls one looking glass. It is safe for concurrent use up
// to ClientOptions.MaxInFlight simultaneous calls (1 by default — the
// collection keeps a single connection per LG unless told otherwise).
// The contract is enforced: a call that would exceed the bound fails
// with ErrConcurrentUse rather than silently queueing.
type Client struct {
	base string
	opts ClientOptions
	http *http.Client
	m    *Metrics
	// calls counts admitted logical API calls; requests counts wire
	// requests (every HTTP round trip, including retries and pages).
	calls    atomic.Int64
	requests atomic.Int64
	// sem holds one token per in-flight call (capacity MaxInFlight).
	sem chan struct{}
	// paceMu guards nextSend, the shared MinInterval pacer: concurrent
	// requests reserve evenly-spaced send slots so the per-LG rate
	// limit holds for any MaxInFlight.
	paceMu   sync.Mutex
	nextSend time.Time
}

// NewClient builds a client for the LG at base (e.g. the httptest
// server URL or "https://lg.de-cix.net").
func NewClient(base string, opts ClientOptions) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 10 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	if opts.MaxRetryAfter <= 0 {
		opts.MaxRetryAfter = 30 * time.Second
	}
	if opts.MaxInFlight < 1 {
		opts.MaxInFlight = 1
	}
	return &Client{base: base, opts: opts, http: hc, m: opts.Metrics, sem: make(chan struct{}, opts.MaxInFlight)}
}

// Requests reports the number of logical API calls made (Status,
// Neighbors, one routes listing, …) — pagination and retries are one
// call no matter how many wire requests they take. For the historical
// "total requests issued, including retries" count, use HTTPRequests.
func (c *Client) Requests() int { return int(c.calls.Load()) }

// HTTPRequests reports the total wire requests issued, including
// retries and pagination — what Requests counted before the split.
func (c *Client) HTTPRequests() int { return int(c.requests.Load()) }

// MaxInFlight reports the client's in-flight call bound, so callers
// (the collector's neighbor pool) can size their worker count to it.
func (c *Client) MaxInFlight() int { return c.opts.MaxInFlight }

// acquire takes one in-flight slot; release returns it. The pair
// bounds concurrency without serialising misuse silently: a call that
// finds every slot taken fails fast instead of queueing.
func (c *Client) acquire() error {
	select {
	case c.sem <- struct{}{}:
		c.calls.Add(1)
		c.m.callStarted()
		return nil
	default:
		return ErrConcurrentUse
	}
}

func (c *Client) release() {
	c.m.callFinished()
	<-c.sem
}

// countWire records one HTTP round trip on both the atomic counter
// and, when instrumented, the telemetry registry.
func (c *Client) countWire() {
	c.requests.Add(1)
	c.m.httpRequest()
}

// get fetches one endpoint and hands the body of its 200 response to
// decode, honouring the rate limit and retrying transient failures
// (5xx, 429, transport errors, truncated bodies, a body decode
// rejects) with full-jitter exponential backoff. decode must not keep
// the body: the buffer is reused by the next request. A 429 carrying a
// Retry-After header is honoured, capped at MaxRetryAfter. Each get is
// one "lg.request" trace span — nested under whatever span the
// context carries — recording the attempt count, every retry's cause
// and wait as events, and the total time spent waiting to retry.
func (c *Client) get(ctx context.Context, path string, decode func(body []byte, h http.Header) error) (err error) {
	ctx, sp := c.m.startSpan(ctx, "lg.request")
	if sp != nil {
		sp.SetAttr("path", path)
		attempts, totalWait := 0, time.Duration(0)
		defer func() {
			sp.SetAttrInt("attempts", int64(attempts))
			if totalWait > 0 {
				sp.SetAttrDuration("retry_wait", totalWait)
			}
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
		}()
		err = c.getRetries(ctx, path, decode, sp, &attempts, &totalWait)
		return err
	}
	return c.getRetries(ctx, path, decode, nil, nil, nil)
}

// getRetries is the retry loop behind get; sp, attempts and totalWait
// are nil when tracing is off.
func (c *Client) getRetries(ctx context.Context, path string, decode func([]byte, http.Header) error, sp *telemetry.Span, attempts *int, totalWait *time.Duration) error {
	var lastErr error
	backoff := c.opts.RetryBackoff
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempts != nil {
			*attempts = attempt + 1
		}
		if attempt > 0 {
			wait := c.retryDelay(lastErr, &backoff)
			cause, kind := "other", "backoff"
			var re *retryableError
			if errors.As(lastErr, &re) {
				cause = re.cause
				if re.retryAfter > 0 {
					kind = "retry_after"
				}
			}
			c.m.retry(cause, kind, wait)
			if sp != nil {
				*totalWait += wait
				sp.Event("retry",
					telemetry.String("cause", cause),
					telemetry.String("kind", kind),
					telemetry.Int("attempt", int64(attempt)),
					telemetry.Duration("wait", wait))
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := c.throttle(ctx); err != nil {
			return err
		}
		lastErr = c.once(ctx, path, decode)
		if lastErr == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The crawl itself was cancelled; no point retrying.
			return lastErr
		}
		var re *retryableError
		if !errors.As(lastErr, &re) {
			return lastErr
		}
	}
	return fmt.Errorf("lg: %s failed after %d attempts: %w", path, c.opts.MaxRetries+1, lastErr)
}

// retryDelay picks the wait before the next attempt: the server's
// Retry-After if it sent one (capped), otherwise full jitter on the
// doubling backoff.
func (c *Client) retryDelay(lastErr error, backoff *time.Duration) time.Duration {
	var re *retryableError
	if errors.As(lastErr, &re) && re.retryAfter > 0 {
		if re.retryAfter > c.opts.MaxRetryAfter {
			return c.opts.MaxRetryAfter
		}
		return re.retryAfter
	}
	d := time.Duration(rand.Int63n(int64(*backoff) + 1))
	*backoff *= 2
	if *backoff > c.opts.MaxBackoff {
		*backoff = c.opts.MaxBackoff
	}
	return d
}

// parseRetryAfter reads a Retry-After header value: delay-seconds or
// an HTTP date. Unparseable or past values yield 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(v); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

// throttle enforces MinInterval between requests. It is a shared
// pacer: under paceMu each caller reserves the next free send slot
// (previous slot + MinInterval), then sleeps until its slot outside
// the lock — so concurrent requests stay evenly spaced instead of
// bursting, and the old unsynchronized lastReq read is gone.
func (c *Client) throttle(ctx context.Context) error {
	if c.opts.MinInterval <= 0 {
		return nil
	}
	c.paceMu.Lock()
	now := time.Now()
	slot := c.nextSend
	if slot.Before(now) {
		slot = now
	}
	c.nextSend = slot.Add(c.opts.MinInterval)
	c.paceMu.Unlock()
	if wait := time.Until(slot); wait > 0 {
		c.m.pacer(wait)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// retryableError marks failures worth retrying; retryAfter carries
// the server's requested delay when it sent one, and cause classifies
// the failure for the retry metrics.
type retryableError struct {
	err        error
	retryAfter time.Duration
	cause      string
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// getJSON is get for the small responses (status, neighbors, a count)
// that encoding/json decodes into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	return c.get(ctx, path, func(body []byte, _ http.Header) error { return json.Unmarshal(body, out) })
}

// bodyPool recycles response-body buffers across requests.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (c *Client) once(ctx context.Context, path string, decode func([]byte, http.Header) error) error {
	if t := c.opts.RequestTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	c.countWire()
	resp, err := c.http.Do(req)
	if err != nil {
		return &retryableError{err: err, cause: "transport"}
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		body := bodyPool.Get().(*bytes.Buffer)
		defer bodyPool.Put(body)
		body.Reset()
		if _, err := body.ReadFrom(resp.Body); err != nil {
			// A connection dying mid-body is as transient as a 500.
			return &retryableError{err: fmt.Errorf("lg: %s: reading body: %w", path, err), cause: "read_body"}
		}
		if err := decode(body.Bytes(), resp.Header); err != nil {
			return &retryableError{err: fmt.Errorf("lg: %s: invalid JSON (truncated response?): %w", path, err), cause: "bad_json"}
		}
		return nil
	case resp.StatusCode == http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return &retryableError{
			err:        fmt.Errorf("lg: %s: status 429", path),
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			cause:      "http_429",
		}
	case resp.StatusCode >= 500:
		io.Copy(io.Discard, resp.Body)
		return &retryableError{err: fmt.Errorf("lg: %s: status %d", path, resp.StatusCode), cause: "http_5xx"}
	default:
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("lg: %s: status %d", path, resp.StatusCode)
	}
}

// Status fetches the LG identity.
func (c *Client) Status(ctx context.Context) (*StatusResponse, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	defer c.release()
	defer c.m.callTimer("status")()
	var out StatusResponse
	if err := c.getJSON(ctx, "/api/v1/status", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Neighbors fetches the member summary list (§3's "summary file with
// the list of peers and the number of routes announced by each").
func (c *Client) Neighbors(ctx context.Context) ([]Neighbor, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	defer c.release()
	defer c.m.callTimer("neighbors")()
	var out NeighborsResponse
	if err := c.getJSON(ctx, "/api/v1/routeservers/rs1/neighbors", &out); err != nil {
		return nil, err
	}
	return out.Neighbors, nil
}

// ConfigRaw fetches the BIRD-style route-server configuration text,
// with get's retries like every other endpoint.
func (c *Client) ConfigRaw(ctx context.Context) (text string, err error) {
	if err := c.acquire(); err != nil {
		return "", err
	}
	defer c.release()
	defer c.m.callTimer("config_raw")()
	err = c.get(ctx, "/api/v1/routeservers/rs1/config/raw", func(b []byte, _ http.Header) error {
		text = string(b)
		return nil
	})
	return text, err
}

// routesPath builds the path of one routes endpoint of one neighbor.
func routesPath(asn uint32, view string) string {
	b := make([]byte, 0, 80)
	b = append(b, "/api/v1/routeservers/rs1/neighbors/"...)
	b = strconv.AppendUint(b, uint64(asn), 10)
	b = append(b, "/routes/"...)
	return string(append(b, view...))
}

// pagePath appends the query of one page request to a routes endpoint.
func pagePath(endpoint string, page, pageSize int) string {
	b := make([]byte, 0, len(endpoint)+40)
	b = append(b, endpoint...)
	b = append(b, "?page="...)
	b = strconv.AppendInt(b, int64(page), 10)
	if pageSize > 0 {
		b = append(b, "&page_size="...)
		b = strconv.AppendInt(b, int64(pageSize), 10)
	}
	return string(b)
}

// listingRestarts bounds how many times routesPaged starts a listing
// over because the table moved under it.
const listingRestarts = 2

// routesPaged walks every page of one routes endpoint, decoding each
// body onto routes (decodePage). A listing is one table: every page
// must carry page 0's ETag — the route server's version of the
// neighbor's routes, sent on multi-page listings — and when it moves
// the walk starts over from page 0, up to listingRestarts times. An LG
// that sends no ETag is held to one TotalCount instead, which catches a
// table that changed size. The walk is bounded: the page count implied
// by the first page's TotalCount caps the loop. A listing that changed
// mid-crawl, or whose pages hold more or fewer routes than it declared,
// is an error — a partial, silently-wrong listing is worse than a
// recorded failure, and the collector retries the neighbour.
func (c *Client) routesPaged(ctx context.Context, endpoint string) ([]bgp.Route, error) {
	var (
		dec      = newListingDecoder()
		routes   []bgp.Route
		info     pageInfo
		etag     string
		badRoute *errBadRoute
	)
	// A route that does not parse is not the transport's fault: it
	// leaves the retry loop as a success and fails the listing here.
	decode := func(body []byte, h http.Header) (err error) {
		etag = ""
		if v := h["Etag"]; len(v) > 0 {
			etag = v[0]
		}
		routes, info, err = dec.decodePage(body, routes)
		if errors.As(err, &badRoute) {
			return nil
		}
		return err
	}
	total, maxPages, version, restarts := 0, 0, "", 0
	for page := 0; ; page++ {
		if err := c.get(ctx, pagePath(endpoint, page, c.opts.PageSize), decode); err != nil {
			return nil, err
		}
		if badRoute != nil {
			return nil, badRoute
		}
		switch {
		case page == 0:
			total, version = info.totalCount, etag
			size := info.pageSize
			if size <= 0 {
				size = info.routes
			}
			if size <= 0 {
				size = 1
			}
			maxPages = (total + size - 1) / size
			if maxPages < 1 {
				maxPages = 1
			}
		case etag != version:
			if restarts == listingRestarts {
				return nil, fmt.Errorf("lg: %s: listing changed mid-crawl %d times (ETag %s -> %s)", endpoint, restarts+1, version, etag)
			}
			restarts++
			c.m.listingRestart()
			routes, page = routes[:0], -1
			continue
		case info.totalCount != total:
			return nil, fmt.Errorf("lg: %s: total count changed mid-crawl (%d -> %d)", endpoint, total, info.totalCount)
		}
		last := page >= info.totalPages-1
		if len(routes) > total || last && len(routes) < total {
			return nil, fmt.Errorf("lg: %s: server returned %d routes for a declared total of %d", endpoint, len(routes), total)
		}
		if last {
			return routes, nil
		}
		if page+1 >= maxPages {
			return nil, fmt.Errorf("lg: %s: pagination ran past the %d pages implied by %d routes", endpoint, maxPages, total)
		}
	}
}

// RoutesReceived fetches every accepted route of one neighbor.
func (c *Client) RoutesReceived(ctx context.Context, asn uint32) ([]bgp.Route, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	defer c.release()
	defer c.m.callTimer("routes_received")()
	return c.routesPaged(ctx, routesPath(asn, "received"))
}

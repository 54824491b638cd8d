package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStartSpanPropagation: the context returned by StartSpan carries
// the span, and spans started under it become its children — same
// trace, correct parent links, three layers deep.
func TestStartSpanPropagation(t *testing.T) {
	r := New()
	sink := &RecordingSink{}
	r.SetSpanSink(sink)

	ctx, root := StartSpan(context.Background(), r, "root.op")
	if root == nil {
		t.Fatal("root span is nil with a sink installed")
	}
	if got := ctx.Value(spanCtxKey{}); got != root {
		t.Fatalf("context carries %v, want the root span", got)
	}
	cctx, child := StartSpan(ctx, r, "child.op")
	_, grand := StartSpan(cctx, r, "grand.op")
	grand.End()
	child.End()
	root.End()

	spans := sink.Spans()
	if len(spans) != 3 {
		t.Fatalf("emitted %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rs, cs, gs := byName["root.op"], byName["child.op"], byName["grand.op"]
	if rs.Parent != 0 {
		t.Errorf("root parent = %v, want 0", rs.Parent)
	}
	if cs.Trace != rs.Trace || gs.Trace != rs.Trace {
		t.Errorf("traces diverge: root %v child %v grand %v", rs.Trace, cs.Trace, gs.Trace)
	}
	if cs.Parent != rs.ID {
		t.Errorf("child parent = %v, want root id %v", cs.Parent, rs.ID)
	}
	if gs.Parent != cs.ID {
		t.Errorf("grandchild parent = %v, want child id %v", gs.Parent, cs.ID)
	}
}

// TestStartSpanDisabledIsFree: with a nil registry or no sink,
// StartSpan returns the context untouched, a nil span, and performs
// zero allocations — the contract every instrumented hot path relies
// on (pinned again, under load, by BenchmarkSpanOverhead/disabled).
func TestStartSpanDisabledIsFree(t *testing.T) {
	ctx := context.Background()
	var nilReg *Registry
	if c, s := StartSpan(ctx, nilReg, "x.y"); c != ctx || s != nil {
		t.Fatal("nil registry: want original ctx and nil span")
	}
	noSink := New()
	if c, s := StartSpan(ctx, noSink, "x.y"); c != ctx || s != nil {
		t.Fatal("no sink: want original ctx and nil span")
	}
	for name, r := range map[string]*Registry{"nil-registry": nilReg, "no-sink": noSink} {
		allocs := testing.AllocsPerRun(100, func() {
			_, sp := StartSpan(ctx, r, "x.y")
			sp.SetAttr("k", "v")
			sp.End()
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per disabled span, want 0", name, allocs)
		}
	}
}

// TestSpanHammer races N goroutines each producing a chain of child
// spans under one root, with concurrent attribute writes and a racing
// double-End. Run under -race this pins the concurrency contract;
// afterwards every span must be accounted for with correct parentage.
func TestSpanHammer(t *testing.T) {
	const goroutines = 16
	const children = 25
	r := New()
	sink := &RecordingSink{}
	r.SetSpanSink(sink)

	ctx, root := StartSpan(context.Background(), r, "hammer.root")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < children; i++ {
				cctx, sp := StartSpan(ctx, r, "hammer.child")
				sp.SetAttrInt("g", int64(g))
				_, leaf := StartSpan(cctx, r, "hammer.leaf")
				leaf.Event("tick", Int("i", int64(i)))
				leaf.End()
				go sp.End() // racing End…
				sp.End()    // …with a second End: exactly one emission
			}
		}(g)
	}
	wg.Wait()
	// The racing goroutine Ends may still be in flight; every span is
	// emitted by one of the two calls, so poll briefly for the total.
	want := 2 * goroutines * children
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.Spans()) < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	root.End()
	spans := sink.Spans()
	if len(spans) != want+1 {
		t.Fatalf("emitted %d spans, want %d", len(spans), want+1)
	}
	byID := map[SpanID]Span{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("span id %v emitted twice", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Trace != root.Trace {
			t.Fatalf("span %v in trace %v, want %v", s.ID, s.Trace, root.Trace)
		}
		if s.Name == "hammer.leaf" {
			parent, ok := byID[s.Parent]
			if !ok || parent.Name != "hammer.child" {
				t.Fatalf("leaf %v parent %v is not a child span", s.ID, s.Parent)
			}
		}
	}
}

// TestJSONLSinkRoundTrip: spans written through the ledger sink come
// back from ReadLedger with ids, parentage, typed attributes and
// events intact.
func TestJSONLSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := NewJSONLSink(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.SetSpanSink(sink)

	ctx, root := StartSpan(context.Background(), r, "rt.root")
	root.SetAttr("ixp", "DE-CIX")
	root.SetAttrInt("count", 7)
	root.SetAttrDuration("wait", 1500*time.Millisecond)
	_, child := StartSpan(ctx, r, "rt.child")
	child.Event("retry", String("cause", "http-500"), Int("attempt", 2))
	child.End()
	root.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	led, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if led.Version != LedgerVersion {
		t.Fatalf("ledger version %d, want %d", led.Version, LedgerVersion)
	}
	if len(led.Spans) != 2 {
		t.Fatalf("ledger has %d spans, want 2", len(led.Spans))
	}
	// The child ended first, so it is the first record.
	cs, rs := led.Spans[0], led.Spans[1]
	if cs.Name != "rt.child" || rs.Name != "rt.root" {
		t.Fatalf("unexpected record order: %q then %q", cs.Name, rs.Name)
	}
	if !rs.Root() || cs.Root() {
		t.Error("root/child Root() flags are wrong")
	}
	if cs.Parent != rs.ID || cs.Trace != rs.Trace {
		t.Errorf("child parent/trace %s/%s, want %s/%s", cs.Parent, cs.Trace, rs.ID, rs.Trace)
	}
	if got := rs.Attr("ixp"); got != "DE-CIX" {
		t.Errorf("ixp attr = %q", got)
	}
	wantKinds := map[string]string{"count": "int", "wait": "dur"}
	for _, a := range rs.Attrs {
		if want, ok := wantKinds[a.Key]; ok && a.T != want {
			t.Errorf("attr %s kind = %q, want %q", a.Key, a.T, want)
		}
	}
	if d, err := time.ParseDuration(rs.Attr("wait")); err != nil || d != 1500*time.Millisecond {
		t.Errorf("wait attr %q does not re-parse to 1.5s", rs.Attr("wait"))
	}
	if len(cs.Events) != 1 || cs.Events[0].Name != "retry" || len(cs.Events[0].Attrs) != 2 {
		t.Fatalf("child events = %+v, want one retry with two attrs", cs.Events)
	}
	if rs.End < rs.Start || cs.End < cs.Start {
		t.Error("span end precedes start")
	}
}

// TestJSONLSinkSizeCap: once the cap is reached later spans are
// dropped and counted, and the truncated ledger still parses cleanly.
func TestJSONLSinkSizeCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := NewJSONLSink(path, 600)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.SetSpanSink(sink)
	for i := 0; i < 50; i++ {
		sp := r.StartSpan("cap.op")
		sp.SetAttr("filler", strings.Repeat("x", 40))
		sp.End()
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	dropped := sink.Dropped()
	if dropped == 0 {
		t.Fatal("no spans dropped under a 600-byte cap")
	}
	led, err := ReadLedger(path)
	if err != nil {
		t.Fatalf("capped ledger does not parse: %v", err)
	}
	if got := int64(len(led.Spans)) + dropped; got != 50 {
		t.Fatalf("written %d + dropped %d != 50 emitted", len(led.Spans), dropped)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() > 600 {
		t.Fatalf("ledger is %d bytes, cap was 600", fi.Size())
	}
}

// goldenSpans builds a fixed two-span trace (deterministic ids and
// timestamps) whose ledger encoding is pinned by testdata/trace.jsonl.
func goldenSpans() []Span {
	base := time.Unix(1700000000, 0).UTC()
	return []Span{
		{
			Name: "collector.neighbor", Trace: 1, ID: 3, Parent: 2,
			Start: base.Add(10 * time.Millisecond), Stop: base.Add(250 * time.Millisecond),
			Attrs: []Attr{String("asn", "64500"), Int("attempts", 2)},
			Events: []Event{{
				Name: "retry", Time: base.Add(120 * time.Millisecond),
				Attrs: []Attr{String("cause", "http-500"), Duration("wait", 100*time.Millisecond)},
			}},
		},
		{
			Name: "collector.collect", Trace: 1, ID: 2,
			Start: base, Stop: base.Add(300 * time.Millisecond),
			Attrs: []Attr{String("ixp", "GOLD-IX"), {Key: "partial", Value: "false", Kind: AttrBool}},
		},
	}
}

// TestLedgerGolden pins the ledger file format: the encoding of a
// fixed trace must match testdata/trace.jsonl byte for byte, and the
// fixture must parse back to the same records. A diff here means the
// format changed — bump LedgerVersion and regenerate with -update.
func TestLedgerGolden(t *testing.T) {
	var buf bytes.Buffer
	hdr, _ := json.Marshal(ledgerHeader{V: LedgerVersion, Kind: ledgerKind})
	buf.Write(hdr)
	buf.WriteByte('\n')
	for _, s := range goldenSpans() {
		line, err := json.Marshal(Record(s))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "trace.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("ledger encoding drifted from golden file (rerun with -update after bumping LedgerVersion):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	led, err := ReadLedger(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Spans) != 2 {
		t.Fatalf("golden ledger has %d spans, want 2", len(led.Spans))
	}
	n := led.Spans[0]
	if n.Name != "collector.neighbor" || n.Attr("asn") != "64500" || n.Parent != "0000000000000002" {
		t.Errorf("golden neighbor span parsed wrong: %+v", n)
	}
	if n.Duration() != 240*time.Millisecond {
		t.Errorf("golden neighbor duration = %v, want 240ms", n.Duration())
	}
}

// TestLedgerVersionCheck: a ledger from another format era is
// rejected, never silently misread.
func TestLedgerVersionCheck(t *testing.T) {
	future := fmt.Sprintf("{\"v\":%d,\"kind\":\"ixplight-trace\"}\n", LedgerVersion+1)
	_, err := ParseLedger(strings.NewReader(future))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", LedgerVersion+1)) {
		t.Fatalf("future version accepted (err=%v)", err)
	}
	if _, err := ParseLedger(strings.NewReader("{\"some\":\"json\"}\n")); err == nil {
		t.Fatal("missing header accepted")
	}
	if _, err := ParseLedger(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
}

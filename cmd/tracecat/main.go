// Command tracecat inspects the trace ledgers ixplight commands write
// with -trace: it reconstructs the span forest (collect → neighbor →
// request), aggregates per-name latency, ranks the slowest subtrees,
// and attributes each crawl's wall time to the neighbor that
// dominated it — retries and backoff included.
//
// Usage:
//
//	tracecat [-tree] [-top 5] trace.jsonl
//
// The default output is the analysis: a one-line summary, per-name
// latency aggregates (count, p50, p95, max), the top-N slowest
// subtrees and the critical path of the slowest trace. -tree
// additionally prints every span as an indented tree.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ixplight/internal/telemetry"
)

func main() {
	tree := flag.Bool("tree", false, "print the full span tree")
	top := flag.Int("top", 5, "slowest subtrees to list (0 = skip)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecat [-tree] [-top N] <trace.jsonl>")
		os.Exit(2)
	}
	led, err := telemetry.ReadLedger(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if len(led.Spans) == 0 {
		fmt.Println("trace ledger is empty")
		return
	}
	forest := buildForest(led.Spans)

	traces := map[string]bool{}
	for i := range led.Spans {
		traces[led.Spans[i].Trace] = true
	}
	fmt.Printf("%s: %d spans, %d traces, %d roots, wall %v\n",
		flag.Arg(0), len(led.Spans), len(traces), len(forest), wall(led.Spans).Round(time.Millisecond))

	if *tree {
		fmt.Println()
		for _, root := range forest {
			printTree(root, 0)
		}
	}

	fmt.Println()
	printAggregates(led.Spans)

	if *top > 0 {
		fmt.Println()
		printSlowest(forest, *top)
	}

	fmt.Println()
	printCriticalPath(forest)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecat:", err)
	os.Exit(1)
}

// node is one span in the reconstructed forest.
type node struct {
	rec  *telemetry.SpanRecord
	kids []*node
}

// buildForest links spans into trees by ParentID. Spans whose parent
// never reached the ledger (dropped by the size cap, or a crawl cut
// mid-span) are promoted to roots so nothing disappears. Roots are
// ordered by start time, children likewise.
func buildForest(spans []telemetry.SpanRecord) []*node {
	byID := make(map[string]*node, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &node{rec: &spans[i]}
	}
	var roots []*node
	for i := range spans {
		n := byID[spans[i].ID]
		if p, ok := byID[spans[i].Parent]; ok && spans[i].Parent != "" {
			p.kids = append(p.kids, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes(roots)
	for _, n := range byID {
		sortNodes(n.kids)
	}
	return roots
}

func sortNodes(ns []*node) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].rec.Start != ns[j].rec.Start {
			return ns[i].rec.Start < ns[j].rec.Start
		}
		return ns[i].rec.ID < ns[j].rec.ID
	})
}

// wall is the ledger's total covered wall time: latest end minus
// earliest start across all spans.
func wall(spans []telemetry.SpanRecord) time.Duration {
	lo, hi := spans[0].Start, spans[0].End
	for i := range spans {
		if spans[i].Start < lo {
			lo = spans[i].Start
		}
		if spans[i].End > hi {
			hi = spans[i].End
		}
	}
	return time.Duration(hi - lo)
}

// label renders one span's display line: name, duration, and its
// most telling attributes.
func label(r *telemetry.SpanRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v", r.Name, r.Duration().Round(time.Microsecond))
	var attrs []string
	for _, a := range r.Attrs {
		attrs = append(attrs, a.Key+"="+a.Value)
	}
	if len(attrs) > 0 {
		fmt.Fprintf(&b, " [%s]", strings.Join(attrs, " "))
	}
	if n := len(r.Events); n > 0 {
		fmt.Fprintf(&b, " (%d events)", n)
	}
	return b.String()
}

func printTree(n *node, depth int) {
	fmt.Printf("%s%s\n", strings.Repeat("  ", depth), label(n.rec))
	for _, k := range n.kids {
		printTree(k, depth+1)
	}
}

// printAggregates groups spans by name and prints count/p50/p95/max.
func printAggregates(spans []telemetry.SpanRecord) {
	byName := map[string][]time.Duration{}
	for i := range spans {
		byName[spans[i].Name] = append(byName[spans[i].Name], spans[i].Duration())
	}
	names := make([]string, 0, len(byName))
	w := len("span")
	for name := range byName {
		names = append(names, name)
		if len(name) > w {
			w = len(name)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-*s  %7s  %10s  %10s  %10s  %10s\n", w, "span", "count", "p50", "p95", "max", "total")
	for _, name := range names {
		ds := byName[name]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var total time.Duration
		for _, d := range ds {
			total += d
		}
		fmt.Printf("%-*s  %7d  %10v  %10v  %10v  %10v\n", w, name, len(ds),
			percentile(ds, 50).Round(time.Microsecond),
			percentile(ds, 95).Round(time.Microsecond),
			ds[len(ds)-1].Round(time.Microsecond),
			total.Round(time.Microsecond))
	}
}

// percentile is the nearest-rank percentile of an ascending-sorted
// slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// printSlowest ranks every subtree (span + descendants, whose wall
// time the span's own duration bounds) and lists the slowest n,
// with the path from the root so a span is locatable in the tree.
func printSlowest(forest []*node, n int) {
	type entry struct {
		n    *node
		path string
	}
	var all []entry
	var walk func(nd *node, prefix string)
	walk = func(nd *node, prefix string) {
		p := nd.rec.Name
		if prefix != "" {
			p = prefix + " › " + nd.rec.Name
		}
		all = append(all, entry{nd, p})
		for _, k := range nd.kids {
			walk(k, p)
		}
	}
	for _, root := range forest {
		walk(root, "")
	}
	sort.Slice(all, func(i, j int) bool {
		if d1, d2 := all[i].n.rec.Duration(), all[j].n.rec.Duration(); d1 != d2 {
			return d1 > d2
		}
		return all[i].n.rec.ID < all[j].n.rec.ID
	})
	if n > len(all) {
		n = len(all)
	}
	fmt.Printf("slowest %d subtrees:\n", n)
	for _, e := range all[:n] {
		extra := ""
		if asn := e.n.rec.Attr("asn"); asn != "" {
			extra = " asn=" + asn
		} else if ph := e.n.rec.Attr("phase"); ph != "" {
			extra = " phase=" + ph
		} else if p := e.n.rec.Attr("path"); p != "" {
			extra = " path=" + p
		}
		fmt.Printf("  %10v  %s (%d spans)%s\n",
			e.n.rec.Duration().Round(time.Microsecond), e.path, subtreeSize(e.n), extra)
	}
}

func subtreeSize(n *node) int {
	total := 1
	for _, k := range n.kids {
		total += subtreeSize(k)
	}
	return total
}

// printCriticalPath walks the slowest root trace, descending into the
// longest child at every level, then attributes each crawl's wall
// time to its dominant neighbor.
func printCriticalPath(forest []*node) {
	if len(forest) == 0 {
		return
	}
	slowest := forest[0]
	for _, root := range forest {
		if root.rec.Duration() > slowest.rec.Duration() {
			slowest = root
		}
	}
	fmt.Printf("critical path (trace %s, %v):\n",
		slowest.rec.Trace, slowest.rec.Duration().Round(time.Microsecond))
	n, depth := slowest, 0
	var parentDur time.Duration
	for {
		share := ""
		if depth > 0 && parentDur > 0 {
			share = fmt.Sprintf(" (%.0f%% of parent)", 100*float64(n.rec.Duration())/float64(parentDur))
		}
		fmt.Printf("  %s%s%s\n", strings.Repeat("  ", depth), label(n.rec), share)
		if len(n.kids) == 0 {
			break
		}
		longest := n.kids[0]
		for _, k := range n.kids {
			if k.rec.Duration() > longest.rec.Duration() {
				longest = k
			}
		}
		parentDur = n.rec.Duration()
		n, depth = longest, depth+1
	}
	attributeCrawls(forest)
}

// attributeCrawls names, for every collector.collect span in the
// forest, the neighbor whose subtree dominated the crawl's wall time,
// with its retry count and accumulated backoff.
func attributeCrawls(forest []*node) {
	var collects []*node
	var walk func(n *node)
	walk = func(n *node) {
		if n.rec.Name == "collector.collect" {
			collects = append(collects, n)
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	for _, root := range forest {
		walk(root)
	}
	for _, c := range collects {
		var worst *node
		for _, k := range c.kids {
			if k.rec.Name != "collector.neighbor" {
				continue
			}
			if worst == nil || k.rec.Duration() > worst.rec.Duration() {
				worst = k
			}
		}
		if worst == nil {
			continue
		}
		retries, backoff := retryCost(worst)
		ixp := c.rec.Attr("ixp")
		if ixp == "" {
			ixp = "crawl"
		}
		pct := 0.0
		if d := c.rec.Duration(); d > 0 {
			pct = 100 * float64(worst.rec.Duration()) / float64(d)
		}
		fmt.Printf("%s wall time dominated by neighbor AS%s: %v of %v (%.0f%%), %d retries, %v backoff\n",
			ixp, worst.rec.Attr("asn"),
			worst.rec.Duration().Round(time.Microsecond),
			c.rec.Duration().Round(time.Microsecond), pct,
			retries, backoff.Round(time.Microsecond))
	}
}

// retryCost sums the retries and retry backoff recorded by the
// lg.request spans inside a subtree: attempts beyond the first count
// as retries, and the retry_wait attribute accumulates the backoff
// the client actually slept.
func retryCost(n *node) (retries int, backoff time.Duration) {
	if n.rec.Name == "lg.request" {
		if a := n.rec.Attr("attempts"); a != "" {
			if v, err := strconv.Atoi(a); err == nil && v > 1 {
				retries += v - 1
			}
		}
		if w := n.rec.Attr("retry_wait"); w != "" {
			if d, err := time.ParseDuration(w); err == nil {
				backoff += d
			}
		}
	}
	for _, k := range n.kids {
		r, b := retryCost(k)
		retries += r
		backoff += b
	}
	return retries, backoff
}

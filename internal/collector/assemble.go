package collector

import "ixplight/internal/bgp"

// Snapshot assembly. A looking glass lists each neighbor's routes in
// prefix order, which for one announcing peer is Normalize's order, so
// a crawl's blocks (one per neighbor, plus what a checkpoint carried)
// arrive sorted and the snapshot is their k-way merge — not a sort of
// their concatenation. Nothing is taken on trust: every block is cut
// into its maximal ascending runs in one linear pass, so a listing a
// misbehaving LG returns out of order simply contributes more runs (a
// natural merge sort, in the worst case) and the result is Normalize's
// order whatever came in.

// routeRun is one ascending run of a block; seq is its position among
// all runs, which breaks ties so that equal keys keep block order.
type routeRun struct {
	routes []bgp.Route
	seq    int
}

func (a *routeRun) before(b *routeRun) bool {
	c := routeCompare(&a.routes[0], &b.routes[0])
	return c < 0 || c == 0 && a.seq < b.seq
}

// mergeRouteBlocks returns the routes of all blocks in Normalize order
// in one exactly-sized slice (nil when there are none, as appending
// nothing to a nil Routes always left it).
func mergeRouteBlocks(blocks [][]bgp.Route) []bgp.Route {
	total := 0
	var runs []routeRun
	for _, block := range blocks {
		total += len(block)
		for from := 0; from < len(block); {
			to := from + 1
			for to < len(block) && routeCompare(&block[to-1], &block[to]) <= 0 {
				to++
			}
			runs = append(runs, routeRun{routes: block[from:to], seq: len(runs)})
			from = to
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]bgp.Route, 0, total)

	// A binary min-heap of runs keyed by their first route.
	down := func(i int) {
		for {
			least := i
			for child := 2*i + 1; child <= 2*i+2 && child < len(runs); child++ {
				if runs[child].before(&runs[least]) {
					least = child
				}
			}
			if least == i {
				return
			}
			runs[i], runs[least] = runs[least], runs[i]
			i = least
		}
	}
	for i := len(runs)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(runs) > 1 {
		top := &runs[0]
		out = append(out, top.routes[0])
		if top.routes = top.routes[1:]; len(top.routes) == 0 {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		down(0)
	}
	return append(out, runs[0].routes...)
}

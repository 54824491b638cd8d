package analysis

import (
	"cmp"
	"slices"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
)

// TypeUsage is one Table 2 cell pair: how many member ASes used an
// action type, and its share of the family's RS members.
type TypeUsage struct {
	Type  dictionary.ActionType
	ASes  int
	Share float64
}

// CommunityCount is one ranked community in Fig. 5/6.
type CommunityCount struct {
	Community bgp.Community
	Class     dictionary.Class
	Count     int
}

// ranked is one histogram entry in ranking order: count descending,
// key ascending — a total order, since keys are distinct.
type ranked[K ~uint32] struct {
	key K
	n   int
}

func (a ranked[K]) compare(b ranked[K]) int {
	if a.n != b.n {
		return cmp.Compare(b.n, a.n)
	}
	return cmp.Compare(a.key, b.key)
}

// topK returns the first k entries of counts in ranking order, or all
// of them when k ≤ 0 or k ≥ len(counts). A bounded k is kept by
// selection, not by sorting everything: a sorted window of the k best
// seen so far, which an entry enters only by beating the window's last.
func topK[K ~uint32](counts map[K]int, k int) []ranked[K] {
	if k <= 0 || k >= len(counts) {
		out := make([]ranked[K], 0, len(counts))
		for key, n := range counts {
			out = append(out, ranked[K]{key, n})
		}
		slices.SortFunc(out, ranked[K].compare)
		return out
	}
	out := make([]ranked[K], 0, k)
	for key, n := range counts {
		e := ranked[K]{key, n}
		if len(out) == k {
			if e.compare(out[k-1]) > 0 {
				continue
			}
			out = out[:k-1]
		}
		i := len(out)
		out = append(out, e)
		for ; i > 0 && e.compare(out[i-1]) < 0; i-- {
			out[i] = out[i-1]
		}
		out[i] = e
	}
	return out
}

// rankCommunities ranks a community histogram by count (desc) then
// value (asc), keeps the first k and classifies only those.
func rankCommunities(counts map[bgp.Community]int, classify func(bgp.Community) dictionary.Class, k int) []CommunityCount {
	top := topK(counts, k)
	out := make([]CommunityCount, len(top))
	for i, e := range top {
		out[i] = CommunityCount{Community: e.key, Class: classify(e.key), Count: e.n}
	}
	return out
}

// NonMemberTargeting quantifies §5.5 for one family: the action
// instances whose target AS has no session at the RS, the total action
// instances, and the top-k such communities (Fig. 6).
type NonMemberTargeting struct {
	Instances int
	Total     int
	Top       []CommunityCount
}

// Share is the headline §5.5 fraction (31.8%–64.3% in the paper).
func (n NonMemberTargeting) Share() float64 { return ratio(n.Instances, n.Total) }

// Culprit is one Fig. 7 bar: an AS and how many of its action
// communities target non-RS members.
type Culprit struct {
	ASN   uint32
	Count int
}

// rankCulprits ranks a per-AS histogram into the Fig. 7 order
// (count desc, ASN asc) and keeps the first k.
func rankCulprits(counts map[uint32]int, k int) []Culprit {
	top := topK(counts, k)
	out := make([]Culprit, len(top))
	for i, e := range top {
		out[i] = Culprit{ASN: e.key, Count: e.n}
	}
	return out
}

// TargetedAS aggregates instances by target ASN (member or not) — the
// per-AS view behind the §5.4 "who is being avoided" discussion.
type TargetedAS struct {
	ASN      uint32
	IsMember bool
	Count    int
}

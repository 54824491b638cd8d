package analysis

import (
	"slices"

	"ixplight/internal/dictionary"
)

// The §5.4 intersection analysis: the paper finds "a considerable
// intersection among the ASes targeted by action communities in the
// top 20 of all IXPs" — fourteen shared avoid-targets between LINX and
// IX.br, six ASes avoided at all four large IXPs. This module computes
// those overlaps for any set of indexes.

// topTargets returns the ASNs targeted by the top-k action
// communities of one IXP family, ascending and each once.
func topTargets(ix *Index, v6 bool, k int) []uint32 {
	top := ix.TopActionCommunities(v6, k)
	asns := make([]uint32, 0, len(top))
	for _, cc := range top {
		if cc.Class.Target == dictionary.TargetPeer {
			asns = append(asns, cc.Class.TargetASN)
		}
	}
	slices.Sort(asns)
	return slices.Compact(asns)
}

// intersectSorted appends to dst the values both a and b hold; a and b
// are ascending with no repeats, and so is what it appends.
func intersectSorted(dst, a, b []uint32) []uint32 {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	return dst
}

// PairwiseIntersection is one cell of the §5.4 pairwise comparison.
type PairwiseIntersection struct {
	IXPA, IXPB string
	Shared     []uint32
}

// TargetIntersections computes, over each IXP's top-k targeted ASes,
// the pairwise overlaps and the set shared by every IXP. Results are
// deterministic: shared ASNs are sorted ascending.
func TargetIntersections(ixps []*Index, v6 bool, k int) (pairs []PairwiseIntersection, common []uint32) {
	sets := make([][]uint32, len(ixps))
	for i, ix := range ixps {
		sets[i] = topTargets(ix, v6, k)
	}
	pairs = make([]PairwiseIntersection, 0, len(ixps)*(len(ixps)-1)/2)
	for i := range ixps {
		for j := i + 1; j < len(ixps); j++ {
			pairs = append(pairs, PairwiseIntersection{
				IXPA: ixps[i].snap.IXP, IXPB: ixps[j].snap.IXP, Shared: intersectSorted(nil, sets[i], sets[j]),
			})
		}
	}
	if len(sets) > 0 {
		// Narrowed in place: every value kept sits at or before where
		// it was read.
		common = sets[0]
		for _, set := range sets[1:] {
			common = intersectSorted(common[:0], common, set)
		}
	}
	return pairs, common
}

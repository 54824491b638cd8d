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

// topTargetSet extracts the ASNs targeted by the top-k action
// communities of one IXP family.
func topTargetSet(ix *Index, v6 bool, k int) map[uint32]bool {
	set := make(map[uint32]bool)
	for _, cc := range ix.TopActionCommunities(v6, k) {
		if cc.Class.Target == dictionary.TargetPeer {
			set[cc.Class.TargetASN] = true
		}
	}
	return set
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
	sets := make([]map[uint32]bool, len(ixps))
	for i, ix := range ixps {
		sets[i] = topTargetSet(ix, v6, k)
	}
	for i := 0; i < len(ixps); i++ {
		for j := i + 1; j < len(ixps); j++ {
			var shared []uint32
			for asn := range sets[i] {
				if sets[j][asn] {
					shared = append(shared, asn)
				}
			}
			slices.Sort(shared)
			pairs = append(pairs, PairwiseIntersection{
				IXPA: ixps[i].snap.IXP, IXPB: ixps[j].snap.IXP, Shared: shared,
			})
		}
	}
	if len(sets) > 0 {
		for asn := range sets[0] {
			inAll := true
			for _, set := range sets[1:] {
				if !set[asn] {
					inAll = false
					break
				}
			}
			if inAll {
				common = append(common, asn)
			}
		}
		slices.Sort(common)
	}
	return pairs, common
}

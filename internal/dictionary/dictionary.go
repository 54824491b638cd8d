package dictionary

import (
	"sort"

	"ixplight/internal/bgp"
)

// Dictionary is an indexed set of enumerated entries for one IXP (or a
// merged set across IXPs): the entries sorted by community value, which
// Lookup binary-searches. Binary search beat a hash index on the
// 774-entry DE-CIX dictionary (~0.4 vs ~0.6 µs, EXPERIMENTS.md
// §Ablations), so the slice is the only index.
type Dictionary struct {
	ixp     string
	entries []Entry // sorted by community
}

// Build constructs the dictionary for one scheme, as the union of the
// RS configuration and the website documentation (§3).
func Build(s *Scheme) *Dictionary {
	return FromEntries(s.IXP, UnionEntries(s.RSConfigEntries(), s.WebsiteEntries()))
}

// FromEntries indexes an entry list. Entries are re-sorted and
// de-duplicated by community value.
func FromEntries(ixp string, entries []Entry) *Dictionary {
	return &Dictionary{ixp: ixp, entries: UnionEntries(entries)}
}

// Merged builds one dictionary covering all the given schemes — the
// paper's 3,183-entry combined dictionary when called on Profiles().
// Colliding values (e.g. the shared RFC 7999 blackhole community) are
// kept once, labelled by the first scheme that defines them.
func Merged(schemes []*Scheme) *Dictionary {
	var all []Entry
	for _, s := range schemes {
		all = append(all, s.Entries()...)
	}
	return FromEntries("merged", all)
}

// IXP returns the dictionary's label.
func (d *Dictionary) IXP() string { return d.ixp }

// Size returns the number of distinct community values.
func (d *Dictionary) Size() int { return len(d.entries) }

// Entries returns the sorted entry list (shared, do not mutate).
func (d *Dictionary) Entries() []Entry { return d.entries }

// Lookup finds the entry for c by binary search over the sorted entries.
func (d *Dictionary) Lookup(c bgp.Community) (Entry, bool) {
	i := sort.Search(len(d.entries), func(i int) bool { return d.entries[i].Community >= c })
	if i < len(d.entries) && d.entries[i].Community == c {
		return d.entries[i], true
	}
	return Entry{}, false
}

// TotalEntries sums the per-scheme dictionary sizes without merging —
// the quantity the paper reports as "more than 3000 communities".
func TotalEntries(schemes []*Scheme) int {
	n := 0
	for _, s := range schemes {
		n += len(s.Entries())
	}
	return n
}

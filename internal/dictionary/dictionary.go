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

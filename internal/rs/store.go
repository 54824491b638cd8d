package rs

import (
	"net/netip"
	"unsafe"

	"ixplight/internal/bgp"
)

// store is where the server keeps what it holds for accepted routes:
// RIB entries from fixed-size pages, and every list an entry points at
// carved from append-only typed slabs. Storing a route therefore
// allocates nothing once the current page and chunks have room, and a
// map of prefix to *ribEntry stores its 8-byte value inline.
//
// Nothing in a slab is ever written twice. A replaced, withdrawn or
// removed route's elements stay where they are and count as dead, so a
// list a visitor was handed keeps reading the same after any later
// mutation. Once the dead elements exceed a quarter of the live ones,
// compact re-carves every live entry into fresh slabs, so memory stays
// bounded however long the server churns. The store belongs to its
// server and is only touched under the write lock.
type store struct {
	entries entryPool
	paths   slab[bgp.ASPath, uint32]
	comms   slab[[]bgp.Community, bgp.Community]
	exts    slab[[]bgp.ExtendedCommunity, bgp.ExtendedCommunity]
	larges  slab[[]bgp.LargeCommunity, bgp.LargeCommunity]
	targets slab[[]uint32, uint32]
	prepend slab[[]prependTo, prependTo]
}

// pageEntries is how many RIB entries one page holds: as many as fit a
// 16 KiB allocation once the runtime's 8-byte header, which an object
// of that size holding pointers carries, is taken off. A page of 64
// entries is 14,336 bytes plus the header, and so a 16 KiB allocation
// anyway.
const pageEntries = (16<<10 - 8) / int(unsafe.Sizeof(ribEntry{}))

// entryPool hands out RIB entries from pages. A released entry is
// zeroed, so it pins no chunk, and reused before a new page is cut.
type entryPool struct {
	page []ribEntry // the unused tail of the newest page
	free []*ribEntry
}

func (p *entryPool) get() *ribEntry {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		return e
	}
	if len(p.page) == 0 {
		p.page = make([]ribEntry, pageEntries)
	}
	e := &p.page[0]
	p.page = p.page[1:]
	return e
}

func (p *entryPool) put(e *ribEntry) {
	*e = ribEntry{}
	p.free = append(p.free, e)
}

// slabChunk is the most elements a slab allocates at a time for lists
// shorter than it; a slab's first chunks start at minChunk and double,
// so a server with few routes holds little. Each slab keeps one chunk
// partly filled, which is why the chunk is not larger: at 4096 the
// visibility experiment's four servers allocated 115 KB (1.5 %) more
// per run than at 1024. compactFloor is how many elements the slabs
// must hold before dead ones are worth re-carving.
const (
	minChunk     = 64
	slabChunk    = 1024
	compactFloor = 4096
)

// slab hands out copies of lists from shared chunks. A copy is
// buf[i:j:j]: with its capacity at its length, an append to one list
// reallocates instead of reaching into its neighbour. A copy keeps the
// source's nil-ness, as slices.Clone does: nil stays nil, and an empty
// list stays empty but present.
type slab[S ~[]E, E any] struct {
	buf  S   // the current chunk
	held int // elements of every chunk cut since the last compaction
	live int // elements of the lists stored entries point at
}

func (s *slab[S, E]) copyOf(src S) S {
	if src == nil {
		return nil
	}
	if len(src) == 0 {
		return S{}
	}
	if cap(s.buf)-len(s.buf) < len(src) {
		n := max(len(src), minChunk, min(slabChunk, 2*cap(s.buf)))
		s.buf = make(S, 0, n)
		s.held += n
	}
	i := len(s.buf)
	s.buf = append(s.buf, src...)
	s.live += len(src)
	return s.buf[i:len(s.buf):len(s.buf)]
}

// drop counts a list carved from s as dead.
func (s *slab[S, E]) drop(list S) { s.live -= len(list) }

// counts reports the elements of the chunks s cut since the last
// compaction, the unused room of the current one, and the elements
// stored entries point at. Whatever else s holds is dead: dropped lists
// and the tails of chunks too short for the list that came next.
func (s *slab[S, E]) counts() (held, room, live int) {
	return s.held, cap(s.buf) - len(s.buf), s.live
}

// fresh replaces s with an empty slab whose first chunk has room for
// exactly its live elements, ready to take them back.
func (s *slab[S, E]) fresh() {
	var buf S
	if s.live > 0 {
		buf = make(S, 0, s.live)
	}
	*s = slab[S, E]{buf: buf, held: s.live}
}

// anySlab is what compaction needs of a slab, whatever it holds.
type anySlab interface {
	counts() (held, room, live int)
	fresh()
}

func (st *store) slabs() [6]anySlab {
	return [...]anySlab{&st.paths, &st.comms, &st.exts, &st.larges, &st.targets, &st.prepend}
}

// put stores r with its action summary a in e: every list is copied,
// so the caller keeps its own.
func (st *store) put(e *ribEntry, r *bgp.Route, a actionSummary) {
	e.route = *r
	e.route.ASPath = st.paths.copyOf(r.ASPath)
	e.route.Communities = st.comms.copyOf(r.Communities)
	e.route.ExtCommunities = st.exts.copyOf(r.ExtCommunities)
	e.route.LargeCommunities = st.larges.copyOf(r.LargeCommunities)
	e.actions = a
	e.actions.targets = st.targets.copyOf(a.targets)
	e.actions.prepend = st.prepend.copyOf(a.prepend)
}

// drop counts e's lists as dead; e still reads as before.
func (st *store) drop(e *ribEntry) {
	st.paths.drop(e.route.ASPath)
	st.comms.drop(e.route.Communities)
	st.exts.drop(e.route.ExtCommunities)
	st.larges.drop(e.route.LargeCommunities)
	st.targets.drop(e.actions.targets)
	st.prepend.drop(e.actions.prepend)
}

// release drops e and returns it to the pool.
func (st *store) release(e *ribEntry) {
	st.drop(e)
	st.entries.put(e)
}

// usage sums counts over all six slabs.
func (st *store) usage() (held, room, live int) {
	for _, sl := range st.slabs() {
		h, r, l := sl.counts()
		held, room, live = held+h, room+r, live+l
	}
	return held, room, live
}

// compact re-carves every entry into fresh slabs once the slabs hold
// at least compactFloor elements and the dead ones exceed a quarter of
// the live. The quarter is what a long-lived server's heap can spare:
// the crawl benchmark's route server holds about 1 MB of lists, and
// under its 1 % churn a day, letting the dead grow to the live's size
// kept 0.25 MB (8 %) more of the server resident on average, where
// compacting four times as often re-carves its lists every 25 days or
// so. It is called after the mutations that leave elements dead; a
// fresh route only adds a chunk tail shorter than itself, so the slabs
// never hold more than twice the live elements plus the room of each
// current chunk. ribIn must be every entry the store holds.
func (st *store) compact(ribIn map[uint32]map[netip.Prefix]*ribEntry) {
	held, room, live := st.usage()
	if held < compactFloor || 4*(held-room-live) <= live {
		return
	}
	for _, sl := range st.slabs() {
		sl.fresh()
	}
	for _, rib := range ribIn {
		for _, e := range rib {
			st.put(e, &e.route, e.actions)
		}
	}
}

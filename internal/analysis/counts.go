package analysis

import (
	"encoding/binary"
	"math/bits"
)

// The fold's refcounts keyed by more than a dense id — (action id, peer)
// pairs for the §5.5 culprits, encoded prefixes for the distinct-prefix
// count — are open-addressed like idSlots: dense entries, slots holding
// entry+1 (0 = empty), a deterministic hash, linear probing. An update
// is one probe and one add and allocates no key. A zero count stays an
// entry until ¾ load purges the zeros into a table sized for twice the
// rest, so a table stays within a constant multiple of its live keys.

// fib64 is 2^64/φ; a key times fib64 picks its slot by the top bits.
const fib64 = 0x9e3779b97f4a7c15

// countSlots is the two tables' shared state; live counts non-zero entries.
type countSlots struct {
	slots  []uint32 // entry+1 per slot, 0 = empty
	shift  uint8    // 64 - log2(len(slots))
	counts []int32
	live   int
}

// resize empties the slots and sizes them for n entries below ¾ load.
func (c *countSlots) resize(n int) {
	size := 8
	for 3*size < 4*n {
		size <<= 1
	}
	if len(c.slots) == size {
		clear(c.slots)
	} else {
		c.slots = make([]uint32, size)
	}
	c.shift = uint8(64 - bits.TrailingZeros(uint(size)))
}

// full reports whether one more entry would pass ¾ load.
func (c *countSlots) full() bool { return 4*(len(c.counts)+1) > 3*len(c.slots) }

// bump adds d, which is non-zero, to entry e's count.
func (c *countSlots) bump(e int, d int32) {
	if c.counts[e] += d; c.counts[e] == d {
		c.live++
	} else if c.counts[e] == 0 {
		c.live--
	}
}

// rehash drops the zero entries, move(from, to) shifting each key down
// with its count, resizes and re-inserts the survivors by hash(e).
func (c *countSlots) rehash(move func(from, to int), hash func(e int) uint64) {
	n := 0
	for e, v := range c.counts {
		if v != 0 {
			c.counts[n] = v
			move(e, n)
			n++
		}
	}
	c.counts = c.counts[:n]
	c.resize(2 * (n + 1))
	mask := len(c.slots) - 1
	for e := range c.counts {
		i := int(hash(e) >> c.shift)
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = uint32(e) + 1
	}
}

// pairCounts counts uint64 keys (id<<32 | peer in the fold); zero is ready.
type pairCounts struct {
	countSlots
	keys []uint64
}

// add adds d to k's count, inserting k on first sight.
func (t *pairCounts) add(k uint64, d int32) {
	if t.full() {
		t.rehash(func(from, to int) { t.keys[to] = t.keys[from] }, func(e int) uint64 { return t.keys[e] * fib64 })
		t.keys = t.keys[:len(t.counts)]
	}
	mask := len(t.slots) - 1
	i := int((k * fib64) >> t.shift)
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if e := int(t.slots[i] - 1); t.keys[e] == k {
			t.bump(e, d)
			return
		}
	}
	t.slots[i] = uint32(len(t.keys)) + 1
	t.keys = append(t.keys, k)
	t.counts = append(t.counts, 0)
	t.bump(len(t.keys)-1, d)
}

// prefixCounts counts encoded prefixes, held back to back in one arena.
type prefixCounts struct {
	countSlots
	arena []byte
	offs  []uint32 // entry e's key is arena[offs[e]:offs[e+1]]
}

// init sizes an empty table for n keys.
func (t *prefixCounts) init(n int) {
	t.resize(n)
	t.offs = []uint32{0}
}

// prefixHash mixes a key by 8-byte words: the same slots on every run.
func prefixHash(key []byte) uint64 {
	h := uint64(len(key))
	for len(key) > 0 {
		var w [8]byte
		key = key[copy(w[:], key):]
		h = (h ^ binary.LittleEndian.Uint64(w[:])) * fib64
	}
	return h
}

// add adds d to key's count, copying key into the arena on first sight.
func (t *prefixCounts) add(key []byte, d int32) {
	if t.full() {
		// Survivors move down in order: no copy overwrites a key to move.
		end := uint32(0)
		t.rehash(func(from, to int) {
			end += uint32(copy(t.arena[end:], t.arena[t.offs[from]:t.offs[from+1]]))
			t.offs[to+1] = end
		}, func(e int) uint64 { return prefixHash(t.arena[t.offs[e]:t.offs[e+1]]) })
		t.offs, t.arena = t.offs[:len(t.counts)+1], t.arena[:end]
	}
	mask := len(t.slots) - 1
	i := int(prefixHash(key) >> t.shift)
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if e := int(t.slots[i] - 1); string(t.arena[t.offs[e]:t.offs[e+1]]) == string(key) {
			t.bump(e, d)
			return
		}
	}
	t.slots[i] = uint32(len(t.counts)) + 1
	t.arena = append(t.arena, key...)
	t.offs = append(t.offs, uint32(len(t.arena)))
	t.counts = append(t.counts, 0)
	t.bump(len(t.counts)-1, d)
}

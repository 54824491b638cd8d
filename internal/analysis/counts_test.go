package analysis

import (
	"fmt"
	"math/rand"
	"testing"
)

// tableUnderTest is one count table seen through what the oracle needs:
// its shared slot state, an update, and the key and hash of an entry.
type tableUnderTest[K comparable] struct {
	c    *countSlots
	add  func(k K, d int32)
	key  func(e int) K
	hash func(k K) uint64
}

// checkTable holds a table to a plain map over the same updates: the
// non-zero entries, iterated in dense order, are exactly the map's
// non-zero keys with their counts, each once; live is their number;
// every slot names a distinct entry and every entry is in exactly one
// slot, reachable by linear probing from its hash's home slot; and
// the load stays at or below ¾.
func checkTable[K comparable](t *testing.T, what string, tab tableUnderTest[K], ref map[K]int32) {
	t.Helper()
	c := tab.c
	if 4*len(c.counts) > 3*len(c.slots) {
		t.Fatalf("%s: %d entries in %d slots, above ¾ load", what, len(c.counts), len(c.slots))
	}
	want := 0
	for _, n := range ref {
		if n != 0 {
			want++
		}
	}
	if c.live != want {
		t.Fatalf("%s: live %d, map has %d non-zero keys", what, c.live, want)
	}
	seen := make(map[K]bool, len(c.counts))
	for e, n := range c.counts {
		k := tab.key(e)
		if seen[k] {
			t.Fatalf("%s: key %#v held by two entries", what, k)
		}
		seen[k] = true
		if n != ref[k] {
			t.Fatalf("%s: key %#v counts %d, map %d", what, k, n, ref[k])
		}
	}
	for k, n := range ref {
		if n != 0 && !seen[k] {
			t.Fatalf("%s: key %#v (count %d) missing from the table", what, k, n)
		}
	}
	slotOf := make([]int, len(c.counts))
	for i, s := range c.slots {
		if s == 0 {
			continue
		}
		if e := int(s - 1); e >= len(c.counts) || slotOf[e] != 0 {
			t.Fatalf("%s: slot %d names entry %d of %d, or one named twice", what, i, e, len(c.counts))
		} else {
			slotOf[e] = i + 1
		}
	}
	mask := len(c.slots) - 1
	for e := range c.counts {
		k := tab.key(e)
		i := int(tab.hash(k) >> c.shift)
		for ; c.slots[i] != 0 && int(c.slots[i]-1) != e; i = (i + 1) & mask {
		}
		if c.slots[i] == 0 {
			t.Fatalf("%s: key %#v unreachable from its home slot", what, k)
		}
	}
}

// driveTable plays one seeded ±1 script against a table and a map.
// Increments fall in a window sliding over the key universe and
// decrements on random live keys, so keys cross zero again and again,
// keys left behind by the window decay to zero entries, and the table
// grows and purges them while its slot array starts at the minimum
// size. It reports how many rehashes grew the table and how many
// purged zero entries.
func driveTable[K comparable](t *testing.T, what string, rng *rand.Rand, universe []K, tab tableUnderTest[K]) (grew, purged int) {
	ref := make(map[K]int32)
	var live []K
	for step := 0; step < 4000; step++ {
		var k K
		d := int32(1)
		if len(live) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			k, d = live[i], -1
			if ref[k] == 1 {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		} else {
			lo := (step / 6) % (len(universe) - 24)
			k = universe[lo+rng.Intn(24)]
			if ref[k] == 0 {
				live = append(live, k)
			}
		}
		entries, slots := len(tab.c.counts), len(tab.c.slots)
		ref[k] += d
		tab.add(k, d)
		if len(tab.c.slots) != slots || len(tab.c.counts) < entries {
			// A rehash: only non-zero entries survive it, and the update
			// that followed can have zeroed k alone.
			for e, n := range tab.c.counts {
				if n == 0 && tab.key(e) != k {
					t.Fatalf("%s step %d: zero entry %#v survived a rehash", what, step, tab.key(e))
				}
			}
			if len(tab.c.counts) < entries {
				purged++
			}
			if len(tab.c.slots) > slots {
				grew++
			}
		}
		if step%97 == 0 {
			checkTable(t, fmt.Sprintf("%s step %d", what, step), tab, ref)
		}
	}
	checkTable(t, what+" end", tab, ref)
	return grew, purged
}

// collidingKeys draws n keys from gen, half of them hashing to the same
// home slot in every table up to 64 slots.
func collidingKeys[K comparable](rng *rand.Rand, n int, gen func(*rand.Rand) K, hash func(K) uint64) []K {
	keys := make([]K, 0, n)
	have := make(map[K]bool)
	for len(keys) < n {
		k := gen(rng)
		if have[k] || (len(keys)%2 == 0 && hash(k)>>58 != 0) {
			continue
		}
		have[k] = true
		keys = append(keys, k)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// TestPairCountsMatchMap holds the (action id, peer) table to a map.
func TestPairCountsMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	gen := func(r *rand.Rand) uint64 { return uint64(r.Intn(4096))<<32 | uint64(r.Uint32()>>r.Intn(32)) }
	hash := func(k uint64) uint64 { return k * fib64 }
	grew, purged := 0, 0
	for round := 0; round < 8; round++ {
		var tab pairCounts // the zero value, as the fold uses it
		g, p := driveTable(t, fmt.Sprintf("round %d", round), rng, collidingKeys(rng, 400, gen, hash), tableUnderTest[uint64]{
			c: &tab.countSlots, add: tab.add, key: func(e int) uint64 { return tab.keys[e] }, hash: hash,
		})
		grew, purged = grew+g, purged+p
	}
	if grew == 0 || purged == 0 {
		t.Fatalf("the scripts grew the table %d times and purged it %d times; both must happen", grew, purged)
	}
}

// prefixKey draws one prefix key of a kind the prefix table must tell
// apart from the others: an IPv4 prefix in its canonical encoding (4,
// address, bits) and its IPv4-mapped IPv6 form (16, address, bits); the
// route key NewIndex builds (As16, bits, family), where an IPv4 prefix
// and the mapped IPv6 prefix of the same length differ in the family
// byte alone; v6 prefixes sharing their first eight bytes, one hash
// word; and a v6 address with a zone (16+len(zone), address, zone,
// bits). Bits vary, so keys also differ in their last byte only.
func prefixKey(r *rand.Rand) string {
	a := [4]byte{10, byte(r.Intn(4)), byte(r.Intn(256)), 0}
	bits := byte(22 + r.Intn(3))
	mapped := append(make([]byte, 10, 16), 0xff, 0xff)
	mapped = append(mapped, a[:]...)
	switch r.Intn(6) {
	case 0:
		return string(append(append([]byte{4}, a[:]...), bits))
	case 1:
		return string(append(append([]byte{16}, mapped...), 96+bits))
	case 2:
		return string(append(append(mapped, bits), 1))
	case 3:
		return string(append(append(mapped, bits), 4))
	case 4:
		v6 := []byte{16, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, byte(r.Intn(4)), 0, 0, 0, 0, 0, 0, 0, byte(r.Intn(256))}
		return string(append(v6, byte(48+r.Intn(17))))
	default:
		zone := "eth" + string(rune('0'+r.Intn(3)))
		v6 := []byte{byte(16 + len(zone)), 0xfe, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, byte(r.Intn(4))}
		return string(append(append(v6, zone...), 64))
	}
}

// TestPrefixCountsMatchMap holds the encoded-prefix table to a map.
// Every universe also holds the invalid prefix (0, 0xFF) and a zoned v6
// key next to the same address without its zone.
func TestPrefixCountsMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	hash := func(k string) uint64 { return prefixHash([]byte(k)) }
	fe80 := []byte{0xfe, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	fixed := []string{
		string([]byte{0, 0xFF}),
		string(append(append(append([]byte{16 + 4}, fe80...), "eth0"...), 64)),
		string(append(append([]byte{16}, fe80...), 64)),
	}
	grew, purged := 0, 0
	for round := 0; round < 8; round++ {
		var tab prefixCounts
		tab.init(0)
		universe := append(collidingKeys(rng, 400, prefixKey, hash), fixed...)
		rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
		g, p := driveTable(t, fmt.Sprintf("round %d", round), rng, universe, tableUnderTest[string]{
			c: &tab.countSlots, add: func(k string, d int32) { tab.add([]byte(k), d) },
			key: func(e int) string { return string(tab.arena[tab.offs[e]:tab.offs[e+1]]) }, hash: hash,
		})
		grew, purged = grew+g, purged+p
	}
	if grew == 0 || purged == 0 {
		t.Fatalf("the scripts grew the table %d times and purged it %d times; both must happen", grew, purged)
	}
}

package cache

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/sim"
)

// policyDigests pins the observable behaviour of every eviction
// policy, alone and behind an L2 tier: the victim sequence, the
// CollectDirty order and the final Stats of the op stream that
// behaviourDigest drives. A change to any constant is a change to
// modelled results and must say so. The constants were captured on
// the map-and-list implementation that preceded the per-file page
// table.
var policyDigests = map[string]uint64{
	"lru":       0xdfa03549a04ac353,
	"lru+l2":    0x1f96e35ca33e4469,
	"fifo":      0x576f66a8a3c3f6d1,
	"fifo+l2":   0x240269b26d418ba3,
	"clock":     0xbe3279a34e1f3a7b,
	"clock+l2":  0x879a26045b3c05a2,
	"random":    0x5cf0dea86cbbf862,
	"random+l2": 0x8f452acde1906c00,
	"2q":        0x39b9289c426f9ea1,
	"2q+l2":     0xd6853f4db0481fa6,
	"arc":       0x3dd1821ed2b8d01f,
	"arc+l2":    0x10337f23d1b321f4,
}

func TestPolicyBehaviourDigest(t *testing.T) {
	for _, name := range PolicyNames() {
		for _, tiered := range []bool{false, true} {
			key := name
			if tiered {
				key += "+l2"
			}
			t.Run(key, func(t *testing.T) {
				got := behaviourDigest(t, name, tiered)
				if want := policyDigests[key]; got != want {
					t.Errorf("digest %#016x, want %#016x", got, want)
				}
			})
		}
	}
}

// flight is one outstanding write-back: the page and its token.
type flight struct {
	id  PageID
	gen uint64
}

// digestID draws the page an op touches: mostly dense indices in a
// few files, some far-apart indices, and a sparse metadata-like stream
// under the top file bit.
func digestID(rng *sim.RNG) PageID {
	switch r := rng.Intn(20); {
	case r < 15:
		return PageID{File: uint64(rng.Intn(5) + 1), Index: int64(rng.Intn(48))}
	case r < 18:
		return PageID{File: uint64(rng.Intn(5) + 1), Index: int64(rng.Intn(6))*4099 + int64(rng.Intn(3))}
	default:
		return PageID{File: 1 << 63, Index: int64(rng.Intn(24)) * 65537}
	}
}

// behaviourDigest drives a fixed random op stream through a cache
// under the named policy (with an L2 tier of the same policy when
// tiered), checks the cache's accounting identities after every op,
// and returns a hash of everything the stream made observable.
func behaviourDigest(t *testing.T, name string, tiered bool) uint64 {
	t.Helper()
	newCache := func(capacity int, seed uint64) *Cache {
		pol, err := NewPolicy(name, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return New(capacity, pol)
	}
	l1 := newCache(32, 11)
	var l2 *Cache
	if tiered {
		l2 = newCache(64, 12)
	}
	h := NewHierarchy(l1, l2)
	rng := sim.NewRNG(2024)
	sum := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		sum.Write(b[:])
	}
	putID := func(id PageID) { put(id.File); put(uint64(id.Index)) }
	putEvicted := func(ev []Evicted) {
		for _, e := range ev {
			putID(e.ID)
			if e.Dirty {
				put(1)
			} else {
				put(0)
			}
		}
		put(uint64(len(ev)))
	}
	// universe holds every page the stream has touched, for the
	// write-back identity; flushed counts pages Flush dropped, which
	// no counter records.
	universe := map[PageID]bool{}
	flushed := map[*Cache]int64{}
	var inflight []flight

	check := func(op int, c *Cache) {
		if c == nil {
			return
		}
		s := c.Stats()
		if want := s.Inserts - s.Evictions - s.Invalidations - flushed[c]; int64(c.Len()) != want {
			t.Fatalf("op %d: Len()=%d, want Inserts-Evictions-Invalidations-flushed = %d", op, c.Len(), want)
		}
		if got := len(c.CollectDirty(nil, 0)); c.DirtyCount() != got {
			t.Fatalf("op %d: DirtyCount()=%d, CollectDirty has %d", op, c.DirtyCount(), got)
		}
		wb := 0
		for id := range universe {
			if c.IsWriteback(id) {
				wb++
			}
		}
		if c.WritebackCount() != wb {
			t.Fatalf("op %d: WritebackCount()=%d, %d resident pages in write-back", op, c.WritebackCount(), wb)
		}
	}

	for op := 0; op < 4000; op++ {
		id := digestID(rng)
		universe[id] = true
		switch r := rng.Intn(200); {
		case r < 70:
			if h.Lookup(id) == Miss {
				putEvicted(h.Insert(id, rng.Bool(0.3)))
			}
		case r < 90:
			putEvicted(h.Insert(id, rng.Bool(0.5)))
		case r < 100:
			putEvicted(h.InsertPrefetched(id))
		case r < 116:
			if h.MarkDirty(id) {
				put(2)
			}
		case r < 132:
			for _, d := range l1.CollectDirty(nil, 1+rng.Intn(4)) {
				if gen, ok := l1.MarkWriteback(d); ok {
					inflight = append(inflight, flight{d, gen})
					put(gen)
				}
			}
		case r < 144:
			if len(inflight) > 0 {
				i := rng.Intn(len(inflight))
				l1.EndWriteback(inflight[i].id, inflight[i].gen)
				inflight = append(inflight[:i], inflight[i+1:]...)
			}
		case r < 156:
			h.Invalidate(id)
		case r < 162:
			h.InvalidateFile(id.File)
		case r < 168:
			h.Clean(id)
		case r < 171:
			putEvicted(l1.Resize(16 + rng.Intn(40)))
		case r < 172:
			for _, c := range []*Cache{l1, l2} {
				if c != nil {
					flushed[c] += int64(c.Len())
					c.Flush()
				}
			}
		case r < 176:
			for _, d := range l1.CollectDirtyFile(nil, id.File) {
				putID(d)
			}
		default:
			if h.Contains(id) {
				put(3)
			}
			h.Lookup(id)
		}
		check(op, l1)
		check(op, l2)
		if op%64 == 0 {
			for _, d := range l1.CollectDirty(nil, 0) {
				putID(d)
			}
		}
	}
	for _, d := range l1.CollectDirty(nil, 0) {
		putID(d)
	}
	putStats(sum, l1.Stats())
	if l2 != nil {
		putStats(sum, l2.Stats())
	}
	return sum.Sum64()
}

func putStats(h hash.Hash64, s Stats) {
	for _, v := range []int64{s.Hits, s.Misses, s.Inserts, s.Evictions, s.DirtyEvict, s.Invalidations, s.Prefetches, s.PrefetchHits} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

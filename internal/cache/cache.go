// Package cache models a page-granular buffer cache with pluggable
// eviction policies, readahead, dirty-page tracking, and an optional
// second (flash) tier.
//
// The paper's central phenomena — the Figure 1 performance cliff, the
// Figure 2 warm-up S-curve, the Figure 3/4 bimodal latency — are all
// artifacts of cache population dynamics, so the cache is modeled in
// full rather than as a hit-ratio formula. The paper also asks "how
// are elements evicted from the cache?" and notes that no benchmark
// measures it; here the eviction policy is a first-class, swappable
// axis that the harness can sweep.
package cache

import "fmt"

// PageSize is the cache granule in bytes, matching the x86 Linux page.
const PageSize = 4096

// PageID names one page of one file (or of file-system metadata, which
// uses reserved File numbers chosen by the file system).
type PageID struct {
	File  uint64 // inode number or metadata stream id
	Index int64  // page index within the file; never negative
}

// String formats the id for diagnostics.
func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.File, p.Index) }

// Evicted reports a page pushed out of the cache and whether it was
// dirty (the caller must then write it back).
type Evicted struct {
	ID    PageID
	Dirty bool
}

// Stats counts cache events. PrefetchHits counts prefetched pages that
// were later referenced before eviction — the measure of readahead
// efficacy the paper asks for ("does the file system pre-fetch entire
// files, blocks, or large extents?").
type Stats struct {
	Hits          int64
	Misses        int64
	Inserts       int64
	Evictions     int64
	DirtyEvict    int64
	Invalidations int64
	Prefetches    int64
	PrefetchHits  int64
}

// HitRatio reports hits/(hits+misses), or 0 with no traffic.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type pageMeta struct {
	qnode             // the page's id, and its links on the dirtied-order list
	wbGen      uint64 // flight token of the current write-back (see MarkWriteback)
	dirty      bool
	writeback  bool // write-back submitted, completion not yet fired
	prefetched bool // inserted by readahead, not yet referenced
}

// Cache is a fixed-capacity page cache. It tracks residency and dirty
// state; the I/O costs of hits, misses, and write-back belong to the
// layer above (the VFS), which knows the device and the block mapping.
//
// Cache is not safe for concurrent use; the simulation core is
// single-goroutine.
type Cache struct {
	capacity int // pages; 0 means cache disabled
	pages    pageTable[pageMeta]
	policy   Policy
	stats    Stats
	wb       int    // resident pages with write-back in flight
	wbGen    uint64 // flight-token counter for MarkWriteback
	// dirtied lists the dirty pages in the order they were dirtied.
	// The order matters: the write-back flusher collects bounded
	// batches, and iterating a Go map would hand it a different batch
	// on every run, destroying the bit-reproducibility the harness
	// promises. FIFO order is also what real kernels approximate
	// (oldest-dirtied first).
	dirtied queue
	// evicted is evictTo's reused result buffer: the slice Insert,
	// InsertPrefetched and Resize return.
	evicted []Evicted
}

// New returns a cache holding capacityPages pages under the given
// eviction policy. A zero capacity is legal and means every lookup
// misses (a "no cache" configuration for cold-cache nano-benchmarks).
func New(capacityPages int, policy Policy) *Cache {
	if capacityPages < 0 {
		panic("cache: negative capacity")
	}
	if policy == nil {
		panic("cache: nil policy")
	}
	policy.SetCapacity(capacityPages)
	return &Cache{
		capacity: capacityPages,
		pages:    newPageTable[pageMeta](),
		policy:   policy,
	}
}

// setDirty and clearDirty keep the dirty bit and the dirtied-order
// list in step.
func (c *Cache) setDirty(m *pageMeta) {
	m.dirty = true
	c.dirtied.pushBack(&m.qnode)
}

func (c *Cache) clearDirty(m *pageMeta) {
	m.dirty = false
	c.dirtied.remove(&m.qnode)
}

// Capacity reports the configured size in pages.
func (c *Cache) Capacity() int { return c.capacity }

// Len reports the number of resident pages.
func (c *Cache) Len() int { return c.pages.len() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Policy exposes the eviction policy (for reports).
func (c *Cache) Policy() Policy { return c.policy }

// Contains reports residency without recording an access — for tests
// and for readahead duplicate suppression.
func (c *Cache) Contains(id PageID) bool { return c.pages.get(id) != nil }

// Lookup records an access to id. It returns whether the page was
// resident. A miss is reported to the policy (ARC and 2Q learn from
// ghost hits).
func (c *Cache) Lookup(id PageID) bool {
	if m := c.pages.get(id); m != nil {
		c.stats.Hits++
		if m.prefetched {
			m.prefetched = false
			c.stats.PrefetchHits++
		}
		c.policy.OnAccess(id)
		return true
	}
	c.stats.Misses++
	c.policy.OnMiss(id)
	return false
}

// Insert makes id resident (typically right after a miss was served
// from the device) and returns any pages evicted to make room. If the
// page is already resident the call only updates its dirty bit. The
// returned slice is the cache's own buffer: it is valid only until the
// cache's next Insert, InsertPrefetched or Resize, so consume it (or
// copy it) before inserting again.
func (c *Cache) Insert(id PageID, dirty bool) []Evicted {
	return c.insert(id, dirty, false)
}

// InsertPrefetched inserts a page fetched by readahead. It is counted
// separately so prefetch efficacy is measurable. Its result is valid
// as long as Insert's.
func (c *Cache) InsertPrefetched(id PageID) []Evicted {
	c.stats.Prefetches++
	return c.insert(id, false, true)
}

func (c *Cache) insert(id PageID, dirty, prefetched bool) []Evicted {
	if m := c.pages.get(id); m != nil {
		if dirty && !m.dirty {
			c.setDirty(m)
		}
		return nil
	}
	if c.capacity == 0 {
		return nil
	}
	evicted := c.evictTo(c.capacity - 1)
	m, _ := c.pages.put(id)
	m.id, m.prefetched = id, prefetched
	if dirty {
		c.setDirty(m)
	}
	c.policy.OnInsert(id)
	c.stats.Inserts++
	return evicted
}

// evictTo evicts the policy's victims until at most limit pages
// remain, and returns them in the cache's reused buffer.
func (c *Cache) evictTo(limit int) []Evicted {
	evicted := c.evicted[:0]
	for c.pages.len() > limit {
		victim, ok := c.policy.Victim()
		if !ok {
			// The policy lost track of a page; fail loudly — this is
			// an invariant violation, not a recoverable state.
			panic(fmt.Sprintf("cache: policy %q has no victim but cache holds %d/%d pages",
				c.policy.Name(), c.pages.len(), c.capacity))
		}
		vm := c.pages.get(victim)
		if vm == nil {
			panic(fmt.Sprintf("cache: policy %q evicted non-resident page %v", c.policy.Name(), victim))
		}
		c.stats.Evictions++
		evicted = append(evicted, Evicted{ID: victim, Dirty: vm.dirty})
		if vm.dirty {
			c.stats.DirtyEvict++
			c.clearDirty(vm)
		}
		c.dropWriteback(vm)
		c.pages.del(victim)
	}
	c.evicted = evicted
	return evicted
}

// MarkDirty sets the dirty bit on a resident page. It reports whether
// the page was resident.
func (c *Cache) MarkDirty(id PageID) bool {
	m := c.pages.get(id)
	if m == nil {
		return false
	}
	if !m.dirty {
		c.setDirty(m)
	}
	return true
}

// Clean clears the dirty bit (after write-back).
func (c *Cache) Clean(id PageID) {
	if m := c.pages.get(id); m != nil && m.dirty {
		c.clearDirty(m)
	}
}

// MarkWriteback moves a dirty page into the write-back state: a
// flusher has submitted its write but the completion has not fired.
// The page leaves the dirtied-order list (so it is not collected
// again) yet still counts against dirty throttling via
// WritebackCount. On success it returns a flight token that the
// completion passes back to EndWriteback; ok is false when the page
// is not resident, not dirty, or already in flight (a page re-dirtied
// during write-back stays dirty and is flushed again only after
// EndWriteback).
func (c *Cache) MarkWriteback(id PageID) (gen uint64, ok bool) {
	m := c.pages.get(id)
	if m == nil || !m.dirty || m.writeback {
		return 0, false
	}
	c.clearDirty(m)
	m.writeback = true
	c.wbGen++
	m.wbGen = c.wbGen
	c.wb++
	return c.wbGen, true
}

// EndWriteback clears the write-back state when the flight identified
// by gen completes. The token guards against stale completions: a
// page evicted mid-flight and later re-inserted and re-flushed has a
// NEW flight outstanding, and the old write's late completion must
// not clear it (sync paths would report durability too early). A
// completion for an evicted or invalidated page is likewise a no-op —
// its count was dropped at removal.
func (c *Cache) EndWriteback(id PageID, gen uint64) {
	if m := c.pages.get(id); m != nil && m.writeback && m.wbGen == gen {
		m.writeback = false
		c.wb--
	}
}

// WritebackCount reports resident pages with write-back in flight.
// Dirty throttling and SyncAll look at DirtyCount + WritebackCount:
// the true amount of not-yet-durable data.
func (c *Cache) WritebackCount() int { return c.wb }

// dropWriteback forgets in-flight state for a page leaving the cache.
func (c *Cache) dropWriteback(m *pageMeta) {
	if m.writeback {
		m.writeback = false
		c.wb--
	}
}

// DirtyCount reports the number of dirty resident pages. It is O(1);
// the write-back trigger calls it on every operation.
func (c *Cache) DirtyCount() int { return c.dirtied.n }

// CollectDirty appends up to max dirty page ids to dst, oldest
// dirtied first, and returns it. The write-back flusher uses this;
// pass max <= 0 for all dirty pages. Cost scales with the number of
// dirty pages, not the cache size.
func (c *Cache) CollectDirty(dst []PageID, max int) []PageID {
	for e := c.dirtied.head; e != nil; e = e.next {
		dst = append(dst, e.id)
		if max > 0 && len(dst) >= max {
			break
		}
	}
	return dst
}

// CollectDirtyFile appends the dirty pages of one file to dst, oldest
// dirtied first — fsync's working set.
func (c *Cache) CollectDirtyFile(dst []PageID, file uint64) []PageID {
	for e := c.dirtied.head; e != nil; e = e.next {
		if e.id.File == file {
			dst = append(dst, e.id)
		}
	}
	return dst
}

// Invalidate drops a page regardless of dirty state (used by truncate
// and unlink, where the data is going away anyway). It reports whether
// the page was resident.
func (c *Cache) Invalidate(id PageID) bool {
	m := c.pages.get(id)
	if m == nil {
		return false
	}
	c.forget(m)
	c.pages.del(id)
	c.stats.Invalidations++
	return true
}

// forget drops a leaving page's dirty and write-back state and tells
// the policy.
func (c *Cache) forget(m *pageMeta) {
	if m.dirty {
		c.clearDirty(m)
	}
	c.dropWriteback(m)
	c.policy.OnRemove(m.id)
}

// InvalidateFile drops every resident page of the given file and
// returns how many were dropped. Its cost scales with the file's
// resident pages, not the cache size. Pages go in index order:
// policies with history (ARC, 2Q) and random eviction see the
// removals, so the order must be deterministic.
func (c *Cache) InvalidateFile(file uint64) int {
	n := c.pages.removeFile(file, func(_ PageID, m *pageMeta) { c.forget(m) })
	c.stats.Invalidations += int64(n)
	return n
}

// Resize changes capacity, evicting as needed, and returns the evicted
// pages, valid as long as Insert's result.
//
//fslint:ignore deadapi TestPolicyBehaviourDigest shrinks and grows L1 through it; its pinned digest covers eviction order under a capacity change
func (c *Cache) Resize(capacityPages int) []Evicted {
	if capacityPages < 0 {
		panic("cache: negative capacity")
	}
	c.capacity = capacityPages
	c.policy.SetCapacity(capacityPages)
	return c.evictTo(c.capacity)
}

// Flush removes every page (writing nothing), in (file, index) order;
// tests and unmount use it after the caller has written dirty pages
// back.
func (c *Cache) Flush() {
	c.pages.removeAll(func(id PageID, _ *pageMeta) { c.policy.OnRemove(id) })
	c.dirtied = queue{}
	c.wb = 0
}

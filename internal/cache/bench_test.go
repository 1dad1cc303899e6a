package cache

import (
	"math/rand/v2"
	"testing"
)

// benchPages is the fileserver benchmark's L1 size: 64 MiB of RAM less
// a 13 MiB OS reserve, in pages.
const benchPages = (64 - 13) << 20 / PageSize

// benchFilePages is the page count of one benchmark file (64 KiB).
const benchFilePages = 16

// fullLRU returns an LRU cache holding benchPages pages in files of
// benchFilePages pages, files 1 upwards.
func fullLRU() *Cache {
	c := New(benchPages, NewLRU())
	for i := 0; i < benchPages; i++ {
		c.Insert(page(uint64(i/benchFilePages+1), int64(i%benchFilePages)), false)
	}
	return c
}

// BenchmarkCacheInsertEvict inserts fresh 16-page files into a full
// cache: every insert evicts the least recently used page.
func BenchmarkCacheInsertEvict(b *testing.B) {
	c := fullLRU()
	next := uint64(benchPages/benchFilePages + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(page(next+uint64(i/benchFilePages), int64(i%benchFilePages)), i%4 == 0)
	}
}

// BenchmarkCacheLookupHit reads whole resident files, one after
// another in a random file order.
func BenchmarkCacheLookupHit(b *testing.B) {
	c := fullLRU()
	files := rand.New(rand.NewPCG(1, 1)).Perm(benchPages / benchFilePages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := files[(i/benchFilePages)%len(files)]
		if !c.Lookup(page(uint64(f+1), int64(i%benchFilePages))) {
			b.Fatal("miss on a resident page")
		}
	}
}

// BenchmarkCacheInvalidateFile inserts one 16-page file, half of it
// dirty, into a full cache and unlinks it: the create/delete churn of
// the fileserver workload. One op is one file.
func BenchmarkCacheInvalidateFile(b *testing.B) {
	c := fullLRU()
	next := uint64(benchPages/benchFilePages + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := next + uint64(i)
		for j := int64(0); j < benchFilePages; j++ {
			c.Insert(page(f, j), j%2 == 0)
		}
		if n := c.InvalidateFile(f); n != benchFilePages {
			b.Fatalf("InvalidateFile dropped %d pages, want %d", n, benchFilePages)
		}
	}
}

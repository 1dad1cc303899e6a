package cache

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/sim"
)

// tableIDs draws distinct pages spread over dense and sparse indices,
// several files and the top file bit.
func tableIDs(rng *sim.RNG, n int) []PageID {
	seen := map[PageID]bool{}
	var ids []PageID
	for len(ids) < n {
		id := PageID{File: uint64(rng.Intn(6)), Index: int64(rng.Intn(40))}
		switch rng.Intn(4) {
		case 0:
			id.Index = rng.Int63n(1 << 40)
		case 1:
			id.File = 1 << 63
			id.Index = rng.Int63n(1 << 22)
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

func comparePages(a, b PageID) int {
	return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Index, b.Index))
}

func TestPageTableWalksInPageOrder(t *testing.T) {
	rng := sim.NewRNG(3)
	ids := tableIDs(rng, 3000)
	tab := newPageTable[PageID]()
	for _, id := range ids {
		v, added := tab.put(id)
		if !added {
			t.Fatalf("put(%v) found a page never inserted", id)
		}
		*v = id
	}
	// Delete a third, then check lookups and the ordered walks.
	for _, id := range ids[:1000] {
		tab.del(id)
	}
	live := slices.Clone(ids[1000:])
	for _, id := range ids[:1000] {
		if tab.get(id) != nil {
			t.Fatalf("get(%v) after del", id)
		}
	}
	for _, id := range live {
		if v := tab.get(id); v == nil || *v != id {
			t.Fatalf("get(%v) = %v", id, v)
		}
	}
	if tab.len() != len(live) {
		t.Fatalf("len() = %d, want %d", tab.len(), len(live))
	}
	slices.SortFunc(live, comparePages)
	var walked []PageID
	visit := func(id PageID, v *PageID) {
		if *v != id {
			t.Fatalf("walk passed %v with value %v", id, *v)
		}
		walked = append(walked, id)
	}
	if n := tab.removeFile(1, visit); n != len(walked) {
		t.Fatalf("removeFile(1) = %d, visited %d", n, len(walked))
	}
	tab.removeAll(visit)
	var want []PageID
	for _, id := range live {
		if id.File == 1 {
			want = append(want, id)
		}
	}
	for _, id := range live {
		if id.File != 1 {
			want = append(want, id)
		}
	}
	if !slices.Equal(walked, want) {
		t.Fatal("removeFile and removeAll did not visit pages in (file, index) order")
	}
	if tab.len() != 0 || len(tab.files) != 0 || len(tab.order) != 0 || tab.memo != nil {
		t.Fatalf("cleared table still holds %d pages, %d files", tab.len(), len(tab.files))
	}
}

func TestPageTableRecyclesStorage(t *testing.T) {
	ids := tableIDs(sim.NewRNG(4), 500)
	tab := newPageTable[int]()
	round := func() {
		for i, id := range ids {
			v, _ := tab.put(id)
			*v = i
		}
		for _, id := range ids {
			tab.del(id)
		}
	}
	round()
	if len(tab.files) != 0 || len(tab.order) != 0 || tab.len() != 0 {
		t.Fatalf("emptied table keeps %d files, %d pages", len(tab.files), tab.len())
	}
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Fatalf("refilling an emptied table allocated %.0f times per round", allocs)
	}
	// Recycled slots come back zeroed.
	v, added := tab.put(ids[7])
	if !added || *v != 0 {
		t.Fatalf("put on a recycled leaf = %d (added %v), want a fresh zero", *v, added)
	}
}

func TestPageTableNegativeIndex(t *testing.T) {
	tab := newPageTable[int]()
	if tab.get(PageID{File: 1, Index: -1}) != nil {
		t.Fatal("get found a negative index")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("put accepted a negative index")
		}
	}()
	tab.put(PageID{File: 1, Index: -1})
}

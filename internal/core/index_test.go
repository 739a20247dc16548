package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestIDIndexDifferential holds the index to a map over a seeded mix of
// sets, removals and lookups of restored ids spread out like a sliced
// frontier's and of ids handed out after them.
func TestIDIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var restored []uint64
	for id := uint64(5); len(restored) < 200; id += 1 + uint64(rng.Intn(50)) {
		restored = append(restored, id)
	}
	next := restored[len(restored)-1] + 1 + uint64(rng.Intn(1000))
	var x IDIndex[*int]
	x.Restored(slices.Clone(restored))
	ref := map[uint64]*int{}
	pick := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return restored[rng.Intn(len(restored))]
		case 1:
			return uint64(rng.Intn(int(next) + 10)) // also ids no one has
		default:
			if rng.Intn(3) == 0 {
				next++
			}
			return next - uint64(rng.Intn(3))
		}
	}
	for step := 0; step < 5000; step++ {
		id := pick()
		switch rng.Intn(5) {
		case 0:
			x.Set(id, nil)
			delete(ref, id)
		case 1, 2:
			v := new(int)
			x.Set(id, v)
			ref[id] = v
		default:
			if got := x.Get(id); got != ref[id] {
				t.Fatalf("step %d: Get(%d) = %p, want %p", step, id, got, ref[id])
			}
		}
		if x.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, map holds %d", step, x.Len(), len(ref))
		}
	}
	var ids []uint64
	x.Each(func(id uint64, v *int) {
		if ref[id] != v {
			t.Errorf("Each gives %d the value %p, want %p", id, v, ref[id])
		}
		ids = append(ids, id)
	})
	if len(ids) != len(ref) || !slices.IsSorted(ids) {
		t.Errorf("Each visited %d ids (sorted: %v), the map holds %d", len(ids), slices.IsSorted(ids), len(ref))
	}
}

// TestIDIndexCost: restored ids cost one entry each however far apart they
// are, and the dense part spans exactly the ids set after them — so a
// snapshot whose id counter lies (the next id 2^40 above its states) costs
// what an honest one does.
func TestIDIndexCost(t *testing.T) {
	restored := []uint64{3, 1 << 20, 1 << 30, 1 << 40}
	var x IDIndex[uint64]
	x.Restored(restored)
	for _, id := range restored {
		x.Set(id, 1)
	}
	first := uint64(1<<40 + 1<<30)
	for id := first; id < first+100; id++ {
		x.Set(id, 2)
	}
	if len(x.ids) != len(restored) || x.base != first || len(x.at) != 100 || cap(x.at) > 2*100 {
		t.Errorf("%d restored entries and %d dense slots (cap %d) from %d; want %d, 100 from %d",
			len(x.ids), len(x.at), cap(x.at), x.base, len(restored), first)
	}
	if x.Len() != len(restored)+100 || x.Get(1<<30) != 1 || x.Get(first+99) != 2 || x.Get(first-1) != 0 {
		t.Error("the index lost an id")
	}
}

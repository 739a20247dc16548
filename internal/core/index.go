package core

import "slices"

// IDIndex maps state ids to values without hashing. A context hands out ids
// in creation order and never reuses one, so the ids a live mapper or engine
// sees are dense: they go in a slice from the smallest, where a lookup is a
// subtraction and a bounds check and a zero value means absent. That part
// costs 8 B (for a pointer or a uint64 value) per id between the smallest
// and the largest.
//
// Restored ids are not dense: a continuation slice keeps some rows of a
// frontier, and a snapshot's id counter may lie. A restore therefore
// declares its ids first (Restored); they are kept as a sorted list beside
// their values, 16 B per restored id whatever their spread, found at their
// offset from the first where none is missing and by binary search
// otherwise. Ids the context hands out after the restore are above all of
// them and go in the dense part. The zero IDIndex is empty and ready to use.
type IDIndex[V comparable] struct {
	ids  []uint64 // restored ids, ascending, all below base
	vals []V      // the value of each restored id
	base uint64   // the id of at[0]
	at   []V
	n    int // ids with a non-zero value
}

// Restored declares ids, ascending and distinct, as the ids of restored
// states, each absent until Set. It must be the first call on the index.
func (x *IDIndex[V]) Restored(ids []uint64) {
	x.ids = ids
	x.vals = make([]V, len(ids))
}

// Get returns the value of id, the zero value if id is absent.
func (x *IDIndex[V]) Get(id uint64) V {
	if i := id - x.base; i < uint64(len(x.at)) {
		return x.at[i]
	}
	if j, ok := SearchIDs(x.ids, id); ok {
		return x.vals[j]
	}
	var zero V
	return zero
}

// SearchIDs returns the position of id in ids, ascending and distinct, or
// the position it would be inserted at and false, as slices.BinarySearch
// does. Where no id between the first and id is missing — every list of
// restored ids no slice was cut from — id is found at its offset from the
// first, without a search.
func SearchIDs(ids []uint64, id uint64) (int, bool) {
	if len(ids) == 0 {
		return 0, false
	}
	if g := id - ids[0]; g < uint64(len(ids)) && ids[g] == id {
		return int(g), true
	}
	return slices.BinarySearch(ids, id)
}

// Set makes v the value of id; the zero value makes id absent.
func (x *IDIndex[V]) Set(id uint64, v V) {
	var p *V
	if i := id - x.base; i < uint64(len(x.at)) {
		p = &x.at[i]
	} else if j, ok := SearchIDs(x.ids, id); ok {
		p = &x.vals[j]
	} else if j < len(x.ids) || len(x.at) > 0 && id < x.base {
		// Below the dense part, which only an id a restore did not
		// declare can be: keep it with the restored ones.
		var zero V
		x.ids = slices.Insert(x.ids, j, id)
		x.vals = slices.Insert(x.vals, j, zero)
		p = &x.vals[j]
	} else {
		if len(x.at) == 0 {
			x.base = id
		}
		n := len(x.at)
		x.at = append(x.at, make([]V, int(id-x.base)+1-n)...)
		p = &x.at[id-x.base]
	}
	var zero V
	switch {
	case *p == zero && v != zero:
		x.n++
	case *p != zero && v == zero:
		x.n--
	}
	*p = v
}

// Len returns the number of ids present.
func (x *IDIndex[V]) Len() int { return x.n }

// Each calls f for every id present, in ascending id order.
func (x *IDIndex[V]) Each(f func(id uint64, v V)) {
	var zero V
	for j, v := range x.vals {
		if v != zero {
			f(x.ids[j], v)
		}
	}
	for i, v := range x.at {
		if v != zero {
			f(x.base+uint64(i), v)
		}
	}
}

package expr

import (
	"slices"
	"sync"
)

// Free-variable sets, memoised eagerly on the hash-consed DAG: every node
// carries the sorted ids of the distinct variables reachable from it,
// computed once at interning time from its (already interned) operands.
// This is what makes constraint partitioning cheap — grouping a query into
// variable-connected components is a walk over small sorted id slices
// instead of repeated DAG traversals.

// VarIDs returns the sorted ids of every distinct variable in e. The
// slice is shared and must not be modified. Constants return nil.
func (e *Expr) VarIDs() []uint32 { return e.vids }

// HasVar reports whether variable id occurs in e, by binary search over
// the memoised id set.
func (e *Expr) HasVar(id uint32) bool {
	lo, hi := 0, len(e.vids)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.vids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(e.vids) && e.vids[lo] == id
}

// mergeVarIDs unions up to three sorted id sets. When the union equals
// one of the inputs, that input's slice is reused so deep DAGs over a
// stable variable population share one set per subtree.
func mergeVarIDs(a, b, c *Expr) []uint32 {
	var sets [][]uint32
	for _, op := range []*Expr{a, b, c} {
		if op != nil && len(op.vids) > 0 {
			sets = append(sets, op.vids)
		}
	}
	switch len(sets) {
	case 0:
		return nil
	case 1:
		return sets[0]
	}
	// Pick the largest set; if it is a superset of the rest, reuse it.
	big := sets[0]
	for _, s := range sets[1:] {
		if len(s) > len(big) {
			big = s
		}
	}
	super := true
	for _, s := range sets {
		for _, id := range s {
			if !containsSorted(big, id) {
				super = false
				break
			}
		}
		if !super {
			break
		}
	}
	if super {
		return big
	}
	out := make([]uint32, 0, len(big)+4)
	for _, s := range sets {
		out = unionSorted(out, s)
	}
	return out
}

func containsSorted(ids []uint32, id uint32) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

// unionSorted merges sorted b into sorted a, returning a new or extended
// sorted slice without duplicates.
func unionSorted(a, b []uint32) []uint32 {
	if len(a) == 0 {
		return append(a, b...)
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// componentScratch is the working memory of one Components call: the
// union-find forest over expression indices and, per variable id, the
// first expression seen with it (stamped, so a call starts empty without
// clearing what the last one wrote).
type componentScratch struct {
	parent []int
	owner  stamped
}

var componentScratches = sync.Pool{New: func() any { return new(componentScratch) }}

// Components labels each expression of es with its variable-connected
// component: two expressions share a label iff a chain of shared variables
// links them. Labels count up from 0 in order of each component's first
// expression, and an expression without variables is a component of its
// own. It is the union-find behind constraint partitioning (solver).
func Components(es []*Expr) []int {
	sc := componentScratches.Get().(*componentScratch)
	defer componentScratches.Put(sc)
	parent := slices.Grow(sc.parent[:0], len(es))[:len(es)]
	sc.parent = parent
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	owner := &sc.owner
	owner.reset()
	for i, e := range es {
		for _, id := range e.vids {
			j, ok := owner.get(id)
			if !ok {
				owner.set(id, uint64(i))
				continue
			}
			if ri, rj := find(i), find(int(j)); ri != rj {
				parent[ri] = rj
			}
		}
	}
	// A component's label is stored at its root's index the first time one
	// of its members is met; the root itself may come later in es.
	labels := make([]int, len(es))
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	for i := range es {
		r := find(i)
		if labels[r] < 0 {
			labels[r] = next
			next++
		}
		labels[i] = labels[r]
	}
	return labels
}

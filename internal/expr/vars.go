package expr

// Free-variable sets, memoised eagerly on the hash-consed DAG: every node
// carries the sorted ids of the distinct variables reachable from it,
// computed once at interning time from its (already interned) operands.
// This is what makes constraint independence slicing cheap — grouping a
// path condition into variable-connected factors is a walk over small
// sorted id slices instead of repeated DAG traversals.

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

// EvalBound computes the concrete value of e when every variable it
// references has a binding in bind (var id → value). ok is false — and
// the value meaningless — when any variable is unbound. It is the
// evaluation half of implied-value concretization: a branch condition
// whose variables are all forced by the path condition evaluates here
// instead of going to the solver.
func EvalBound(e *Expr, bind map[uint32]uint64) (uint64, bool) {
	for _, id := range e.vids {
		if _, ok := bind[id]; !ok {
			return 0, false
		}
	}
	memo := make(map[*Expr]uint64)
	v := evalMemo(e, func(v *Expr) uint64 { return bind[uint32(v.val)] }, memo)
	return v, true
}

// Components labels each expression of es with its variable-connected
// component: two expressions share a label iff a chain of shared variables
// links them. Labels count up from 0 in order of each component's first
// expression, and an expression without variables is a component of its
// own. It is the one union-find behind constraint partitioning (solver)
// and independence slicing (qopt).
func Components(es []*Expr) []int {
	parent := make([]int, len(es))
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
	owner := make(map[uint32]int, 2*len(es)) // variable id -> first expression seen
	for i, e := range es {
		for _, id := range e.vids {
			j, ok := owner[id]
			if !ok {
				owner[id] = i
				continue
			}
			if ri, rj := find(i), find(j); ri != rj {
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

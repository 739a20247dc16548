package solver

// subsumptionIndex is a KLEE CexCache-style verdict store that answers
// queries by set reasoning over sorted, deduplicated constraint-hash
// sets instead of exact key equality:
//
//   - a stored UNSAT entry that is a *subset* of the query proves UNSAT
//     (adding constraints cannot make an unsatisfiable core satisfiable);
//   - a stored SAT entry that is a *superset* of the query proves SAT
//     (any model of the superset satisfies every constraint of the query).
//
// Entries are reached through two inverted indexes so a lookup touches
// only entries sharing a constraint with the query. The zero value is
// ready to use; the Solver guards it with its own mutex.
type subsumptionIndex struct {
	entries []subsEntry
	// unsatByMin indexes UNSAT entries under their smallest hash: a
	// subset of the query necessarily has its minimum element among the
	// query's hashes.
	unsatByMin map[uint64][]int32
	// satByHash indexes SAT entries under every member hash: a superset
	// of the query necessarily contains the query's first (smallest)
	// hash.
	satByHash map[uint64][]int32
	// seen dedupes entries by combined query key.
	seen map[uint64]struct{}
}

type subsEntry struct {
	hashes []uint64 // sorted, deduplicated constraint hashes
	sat    bool
}

// lookup decides the query with hash set hs (sorted, deduplicated) by
// subsumption: the verdict, and whether an entry subsumes the query.
func (x *subsumptionIndex) lookup(hs []uint64) (bool, bool) {
	if len(x.entries) == 0 {
		return false, false
	}
	// UNSAT subsets: every candidate's minimum hash is one of ours.
	for _, h := range hs {
		for _, idx := range x.unsatByMin[h] {
			if isSubsetOf(x.entries[idx].hashes, hs) {
				return false, true
			}
		}
	}
	// SAT supersets: every candidate contains our smallest hash.
	for _, idx := range x.satByHash[hs[0]] {
		if isSubsetOf(hs, x.entries[idx].hashes) {
			return true, true
		}
	}
	return false, false
}

// store records a decided query. Budget-exhausted (ErrBudget) verdicts
// must never reach here: an unknown stored as UNSAT would subsume — and
// wrongly refute — every extension of the query.
func (x *subsumptionIndex) store(key uint64, hs []uint64, sat bool) {
	if x.seen == nil {
		x.unsatByMin = make(map[uint64][]int32)
		x.satByHash = make(map[uint64][]int32)
		x.seen = make(map[uint64]struct{})
	}
	if _, dup := x.seen[key]; dup {
		return
	}
	x.seen[key] = struct{}{}
	idx := int32(len(x.entries))
	x.entries = append(x.entries, subsEntry{hashes: hs, sat: sat})
	if sat {
		for _, h := range hs {
			x.satByHash[h] = append(x.satByHash[h], idx)
		}
	} else {
		x.unsatByMin[hs[0]] = append(x.unsatByMin[hs[0]], idx)
	}
}

// isSubsetOf reports a ⊆ b for sorted, deduplicated slices.
func isSubsetOf(a, b []uint64) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j >= len(b) || b[j] != v {
			return false
		}
		j++
	}
	return true
}

// Mapper snapshots: a plain-data mirror of each algorithm's grouping
// structure, referencing execution states by id only. SnapshotMapper
// flattens a mapper for the checkpoint subsystem; RestoreMapper rebuilds
// it around already-restored states. Bucket and list orders are preserved
// exactly — COW's ScenarioFor picks bucket heads and SDS's send phases
// walk super-dstate lists in order, so a reordered restore would diverge
// from the interrupted run. Snapshots cross a disk round-trip, so every
// structural invariant, and conflict-freedom (a node's states in one
// dstate share their history), is validated with errors, never panics.
package core

import (
	"fmt"
	"slices"
)

// VDStateImage is one SDS dstate over virtual states, each virtual state
// named by its actual state's id (unambiguous: SDS guarantees at most one
// virtual state per actual state per dstate).
type VDStateImage struct {
	ID     int
	ByNode [][]uint64
}

// SuperImage is one actual state's super-dstate: the dstates its virtual
// states inhabit, in list (head-first) order.
type SuperImage struct {
	StateID   uint64
	DStateIDs []int
}

// MapperSnapshot is the flattened form of a Mapper. Exactly one of the
// per-algorithm sections is populated, selected by Algorithm.
type MapperSnapshot struct {
	Algorithm Algorithm
	K         int

	// COB: one row per dscenario, one state id per node.
	Scenarios [][]uint64

	// COW: one entry per dstate, per node an ordered state bucket.
	DStates [][][]uint64

	// SDS: dstates over virtual states plus per-state super-dstates.
	NextDSID int
	VDStates []VDStateImage
	Supers   []SuperImage // sorted by StateID
}

// SnapshotMapper flattens a mapper produced by New. It fails on a mapper
// still in its registration phase — checkpoints are only taken between
// engine steps, long after registration completes. The id lists of a
// snapshot are carved, each capped at its own length, from one allocation
// per kind.
func SnapshotMapper[S StateHandle[S]](m Mapper[S]) (*MapperSnapshot, error) {
	if r, ok := m.(interface{ registered() bool }); ok && !r.registered() {
		return nil, fmt.Errorf("core: snapshot of %v mid-registration", m.Algorithm())
	}
	switch mm := m.(type) {
	case *COB[S]:
		// Every bucket holds one state, so a dscenario's ids are one row.
		k := mm.k
		ids := mm.stateIDs()
		sp := &MapperSnapshot{Algorithm: COBAlgorithm, K: k, Scenarios: make([][]uint64, len(mm.dstates))}
		for i := range sp.Scenarios {
			sp.Scenarios[i] = ids[i*k : (i+1)*k : (i+1)*k]
		}
		return sp, nil
	case *COW[S]:
		return &MapperSnapshot{Algorithm: COWAlgorithm, K: mm.k, DStates: mm.bucketIDs(mm.stateIDs())}, nil
	case *SDS[S]:
		ids := mm.stateIDs()
		sp := &MapperSnapshot{
			Algorithm: SDSAlgorithm, K: mm.k, NextDSID: len(mm.dstates),
			VDStates: make([]VDStateImage, len(mm.dstates)),
			Supers:   make([]SuperImage, 0, mm.virtuals.Len()),
		}
		for i, byNode := range mm.bucketIDs(ids) {
			sp.VDStates[i] = VDStateImage{ID: i, ByNode: byNode}
		}
		// The index walks in state id order, the order Supers is kept in.
		dsIDs := make([]int, len(ids))
		mm.virtuals.Each(func(_ uint64, l *vlist[S]) {
			list := dsIDs[:l.n:l.n]
			dsIDs = dsIDs[l.n:]
			i := 0
			for v := l.first(); v != nil; v = l.next(v) {
				list[i] = v.ds.id
				i++
			}
			sp.Supers = append(sp.Supers, SuperImage{StateID: l.actual.ID(), DStateIDs: list})
		})
		return sp, nil
	}
	return nil, fmt.Errorf("core: cannot snapshot mapper %T", m)
}

// RestoreMapper rebuilds a mapper from its snapshot. lookup resolves a
// state id to its restored state; every referenced id must resolve, live
// on the node its bucket claims, and appear in exactly the positions the
// algorithm's invariants allow. All three fill their dstates through one
// loop, dtable.restoreBuckets.
func RestoreMapper[S StateHandle[S]](sp *MapperSnapshot, lookup func(uint64) (S, bool)) (Mapper[S], error) {
	if sp == nil {
		return nil, fmt.Errorf("core: nil mapper snapshot")
	}
	k := sp.K
	if k <= 0 {
		return nil, fmt.Errorf("core: mapper snapshot with k=%d", k)
	}
	switch sp.Algorithm {
	case COBAlgorithm:
		// A dscenario row is a dstate whose buckets hold one state each:
		// one-element views of the row.
		n := 0
		for _, row := range sp.Scenarios {
			n += len(row)
		}
		buckets := make([][]uint64, n)
		dstates := make([][][]uint64, len(sp.Scenarios))
		for i, row := range sp.Scenarios {
			ds := buckets[:len(row):len(row)]
			buckets = buckets[len(row):]
			for node := range row {
				ds[node] = row[node : node+1 : node+1]
			}
			dstates[i] = ds
		}
		m := &COB[S]{}
		if err := m.restore(k, dstates, lookup); err != nil {
			return nil, err
		}
		return m, nil
	case COWAlgorithm:
		m := &COW[S]{}
		if err := m.restore(k, sp.DStates, lookup); err != nil {
			return nil, err
		}
		return m, nil
	case SDSAlgorithm:
		return restoreSDS(sp, lookup)
	}
	return nil, fmt.Errorf("core: mapper snapshot with unknown algorithm %d", sp.Algorithm)
}

// restore fills m, an empty COW, with the dstates of a snapshot, each state
// in exactly one of them.
func (m *COW[S]) restore(k int, dstates [][][]uint64, lookup func(uint64) (S, bool)) error {
	ids := make([]uint64, 0, countIDs(dstates))
	for _, src := range dstates {
		for _, bucket := range src {
			ids = append(ids, bucket...)
		}
	}
	ids = sortedDistinct(ids)
	states := make([]S, len(ids))
	for j, id := range ids {
		s, ok := lookup(id)
		if !ok {
			return fmt.Errorf("core: mapper snapshot references unknown state %d", id)
		}
		states[j] = s
	}
	m.actual = self[S]
	m.index.Restored(ids)
	return m.restoreBuckets(k, dstates, ids, states, func(d *dstate[S], j int) (S, error) {
		if m.index.Get(ids[j]) != nil {
			var zero S
			return zero, fmt.Errorf("core: state %d in two dstates", ids[j])
		}
		m.index.Set(ids[j], d)
		return states[j], nil
	})
}

// restoreSDS is RestoreMapper for SDS. The super-dstate images name the
// restored states: they must be in strictly ascending state id order. The
// dstates' buckets are filled as COW's are, with the virtual states made
// from one block and each queued on a pending list of its actual state;
// each super-dstate is then linked in its stored order, through a scratch
// slot per dstate id. SDS deletes no dstate, so a snapshot must hold every
// dstate id below NextDSID exactly once, each at its own position.
func restoreSDS[S StateHandle[S]](sp *MapperSnapshot, lookup func(uint64) (S, bool)) (Mapper[S], error) {
	nd := len(sp.VDStates)
	if sp.NextDSID != nd {
		return nil, fmt.Errorf("core: SDS snapshot holds %d dstates, but %d were created (SDS deletes none)",
			nd, sp.NextDSID)
	}
	supers := sp.Supers
	ids := make([]uint64, len(supers))
	actual := make([]S, len(supers))
	for j, si := range supers {
		if j > 0 && si.StateID <= supers[j-1].StateID {
			if si.StateID == supers[j-1].StateID {
				return nil, fmt.Errorf("core: state %d has two super-dstates", si.StateID)
			}
			return nil, fmt.Errorf("core: super-dstate of state %d out of state id order", si.StateID)
		}
		s, ok := lookup(si.StateID)
		if !ok {
			return nil, fmt.Errorf("core: super-dstate of unknown state %d", si.StateID)
		}
		ids[j], actual[j] = si.StateID, s
	}
	dstates := make([][][]uint64, nd)
	for i, img := range sp.VDStates {
		if img.ID != i {
			return nil, fmt.Errorf("core: SDS dstate at position %d has id %d", i, img.ID)
		}
		dstates[i] = img.ByNode
	}
	m := &SDS[S]{dtable: dtable[S, *vstate[S]]{actual: actualOf[S]}}
	m.virtuals.Restored(ids)
	block := make([]vstate[S], countIDs(dstates))
	// pending[j] heads the virtual states of supers[j]'s state made so far,
	// newest first, linked through link[0] until their list is built.
	pending := make([]*vstate[S], len(supers))
	err := m.restoreBuckets(sp.K, dstates, ids, actual, func(d *dstate[*vstate[S]], j int) (*vstate[S], error) {
		// A state's entries in one dstate are queued one after another,
		// so a second one finds the first at the head.
		if p := pending[j]; p != nil && p.ds == d {
			return nil, fmt.Errorf("core: state %d twice in SDS dstate %d", ids[j], d.id)
		}
		v := &block[0]
		block = block[1:]
		v.ds, v.link[0] = d, pending[j]
		pending[j] = v
		return v, nil
	})
	if err != nil {
		return nil, err
	}

	lists := make([]vlist[S], len(supers))
	slot := make([]*vstate[S], nd) // by dstate id: the current state's virtual state there
	for j, si := range supers {
		queued := 0
		for v := pending[j]; v != nil; v = v.link[0] {
			slot[v.ds.id] = v
			queued++
		}
		l := &lists[j]
		l.actual = actual[j]
		// prepend builds the list back-to-front, so feed it the stored
		// head-first order in reverse.
		for i := len(si.DStateIDs) - 1; i >= 0; i-- {
			id := si.DStateIDs[i]
			var v *vstate[S]
			if id >= 0 && id < nd {
				v = slot[id]
			}
			if v == nil {
				return nil, fmt.Errorf("core: state %d's super-dstate names dstate %d it is not in", si.StateID, id)
			}
			if v.list != nil { // prepend sets it
				return nil, fmt.Errorf("core: state %d lists dstate %d twice", si.StateID, id)
			}
			l.prepend(v)
		}
		if int(l.n) != queued {
			return nil, fmt.Errorf("core: %d virtual states of state %d not claimed by its super-dstate",
				queued-int(l.n), si.StateID)
		}
		for v := l.first(); v != nil; v = l.next(v) {
			slot[v.ds.id] = nil
		}
		m.virtuals.Set(si.StateID, l)
	}
	return m, nil
}

// sortedDistinct sorts ids in place and drops repeats: the ids a restore
// declares to its index. A repeat is refused where the restore meets it.
func sortedDistinct(ids []uint64) []uint64 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

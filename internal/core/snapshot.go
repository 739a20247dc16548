// Mapper snapshots: a plain-data mirror of a mapper's dstate table,
// referencing execution states by id only. SnapshotMapper flattens a mapper
// for the checkpoint subsystem; RestoreMapper rebuilds it around
// already-restored states. Bucket and list orders are preserved exactly —
// COW's ScenarioFor picks bucket heads and SDS's send phases walk
// super-dstate lists in order, so a reordered restore would diverge from
// the interrupted run. Snapshots cross a disk round-trip, so every
// structural invariant, and conflict-freedom (a node's states in one dstate
// share their history), is validated with errors, never panics.
package core

import "fmt"

// SuperImage is one actual state's super-dstate: the dstates its virtual
// states inhabit, in list (head-first) order.
type SuperImage struct {
	StateID   uint64
	DStateIDs []int
}

// MapperSnapshot is the flattened form of a Mapper: its dstate table, the
// same for all three algorithms, and for SDS the super-dstates.
type MapperSnapshot struct {
	Algorithm Algorithm
	K         int

	// One entry per dstate, its id being its position; per node an ordered
	// bucket of state ids — of actual states for SDS, one virtual state
	// each. A COB bucket holds one id.
	DStates [][][]uint64

	// SDS only: one super-dstate per state, in state id order.
	Supers []SuperImage
}

// SnapshotMapper flattens a mapper produced by New. It fails on a mapper
// still in its registration phase — checkpoints are only taken between
// engine steps, long after registration completes. The id lists of a
// snapshot are carved, each capped at its own length, from one allocation
// per kind.
func SnapshotMapper[S StateHandle[S]](m Mapper[S]) (*MapperSnapshot, error) {
	t, ok := m.(interface {
		registered() bool
		image() (int, [][][]uint64)
	})
	if !ok {
		return nil, fmt.Errorf("core: cannot snapshot mapper %T", m)
	}
	if !t.registered() {
		return nil, fmt.Errorf("core: snapshot of %v mid-registration", m.Algorithm())
	}
	sp := &MapperSnapshot{Algorithm: m.Algorithm()}
	sp.K, sp.DStates = t.image()
	if mm, ok := m.(*SDS[S]); ok {
		// The index walks in state id order, the order Supers is kept in.
		sp.Supers = make([]SuperImage, 0, mm.virtuals.Len())
		dsIDs := make([]int, countIDs(sp.DStates))
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
	}
	return sp, nil
}

// RestoreMapper rebuilds a mapper from its snapshot over states, the
// restored states in strictly ascending id order. Every state must be
// placed: in a dstate for COB and COW, on its super-dstate for SDS. Every
// referenced id must be one of states, live on the node its bucket claims,
// and appear in exactly the positions the algorithm's invariants allow. All
// three fill their dstates through one loop, dtable.restoreBuckets.
func RestoreMapper[S StateHandle[S]](sp *MapperSnapshot, states []S) (Mapper[S], error) {
	if sp == nil {
		return nil, fmt.Errorf("core: nil mapper snapshot")
	}
	if sp.K <= 0 {
		return nil, fmt.Errorf("core: mapper snapshot with k=%d", sp.K)
	}
	ids := make([]uint64, len(states))
	for j, s := range states {
		if ids[j] = s.ID(); j > 0 && ids[j] <= ids[j-1] {
			return nil, fmt.Errorf("core: restored state %d after state %d (ids must ascend strictly)", ids[j], ids[j-1])
		}
	}
	if sp.Algorithm != SDSAlgorithm && len(sp.Supers) != 0 {
		return nil, fmt.Errorf("core: %v snapshot with %d super-dstates", sp.Algorithm, len(sp.Supers))
	}
	switch sp.Algorithm {
	case COBAlgorithm:
		// COW's restore, then one state per bucket.
		m := &COB[S]{}
		if err := m.restore(sp.K, sp.DStates, ids, states); err != nil {
			return nil, err
		}
		if err := m.checkScenarios(); err != nil {
			return nil, err
		}
		return m, nil
	case COWAlgorithm:
		m := &COW[S]{}
		if err := m.restore(sp.K, sp.DStates, ids, states); err != nil {
			return nil, err
		}
		return m, nil
	case SDSAlgorithm:
		return restoreSDS(sp, ids, states)
	}
	return nil, fmt.Errorf("core: mapper snapshot with unknown algorithm %d", sp.Algorithm)
}

// restore fills m, an empty COW, with the dstates of a snapshot, each of
// states, whose ids are ids, in exactly one of them.
func (m *COW[S]) restore(k int, dstates [][][]uint64, ids []uint64, states []S) error {
	m.actual = self[S]
	m.index.Restored(ids)
	err := m.restoreBuckets(k, dstates, ids, states, func(d *dstate[S], j int) (S, error) {
		if m.index.Get(ids[j]) != nil {
			var zero S
			return zero, fmt.Errorf("core: state %d in two dstates", ids[j])
		}
		m.index.Set(ids[j], d)
		return states[j], nil
	})
	if err == nil && m.index.Len() != len(states) {
		err = fmt.Errorf("core: %d of %d restored states are in no dstate", len(states)-m.index.Len(), len(states))
	}
	return err
}

// restoreSDS is RestoreMapper for SDS. There is one super-dstate image per
// state, in the states' order. The dstates' buckets are filled as COW's
// are, with the virtual states made from one block and each queued on a
// pending list of its actual state; each super-dstate is then linked in its
// stored order, through a scratch slot per dstate id.
func restoreSDS[S StateHandle[S]](sp *MapperSnapshot, ids []uint64, states []S) (Mapper[S], error) {
	supers := sp.Supers
	if len(supers) != len(states) {
		return nil, fmt.Errorf("core: SDS snapshot with %d super-dstates for %d states", len(supers), len(states))
	}
	for j, si := range supers {
		if si.StateID != ids[j] {
			return nil, fmt.Errorf("core: super-dstate %d is of state %d, not of state %d", j, si.StateID, ids[j])
		}
	}
	nd := len(sp.DStates)
	m := &SDS[S]{dtable: dtable[S, *vstate[S]]{actual: actualOf[S]}}
	m.virtuals.Restored(ids)
	block := make([]vstate[S], countIDs(sp.DStates))
	// pending[j] heads the virtual states of states[j] made so far, newest
	// first, linked through link[0] until their list is built.
	pending := make([]*vstate[S], len(states))
	err := m.restoreBuckets(sp.K, sp.DStates, ids, states, func(d *dstate[*vstate[S]], j int) (*vstate[S], error) {
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
		if queued == 0 {
			return nil, fmt.Errorf("core: state %d is in no dstate", si.StateID)
		}
		l := &lists[j]
		l.actual = states[j]
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

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
	switch mm := m.(type) {
	case *COB[S]:
		if mm.nRegister != mm.k {
			return nil, fmt.Errorf("core: snapshot of COB mid-registration")
		}
		sp := &MapperSnapshot{Algorithm: COBAlgorithm, K: mm.k, Scenarios: make([][]uint64, len(mm.dstates))}
		ids := make([]uint64, len(mm.dstates)*mm.k)
		for i, d := range mm.dstates {
			row := ids[i*mm.k : (i+1)*mm.k : (i+1)*mm.k]
			for node, bucket := range d.byNode {
				row[node] = bucket[0].ID()
			}
			sp.Scenarios[i] = row
		}
		return sp, nil
	case *COW[S]:
		if mm.nRegister != mm.k {
			return nil, fmt.Errorf("core: snapshot of COW mid-registration")
		}
		sp := &MapperSnapshot{Algorithm: COWAlgorithm, K: mm.k, DStates: make([][][]uint64, len(mm.dstates))}
		buckets := make([][]uint64, len(mm.dstates)*mm.k)
		ids := make([]uint64, 0, mm.index.Len())
		for i, d := range mm.dstates {
			ds := buckets[i*mm.k : (i+1)*mm.k : (i+1)*mm.k]
			for node, bucket := range d.byNode {
				for _, s := range bucket {
					ids = append(ids, s.ID())
				}
				ds[node] = ids[len(ids)-len(bucket) : len(ids) : len(ids)]
			}
			sp.DStates[i] = ds
		}
		return sp, nil
	case *SDS[S]:
		if mm.nRegister != mm.k {
			return nil, fmt.Errorf("core: snapshot of SDS mid-registration")
		}
		sp := &MapperSnapshot{
			Algorithm: SDSAlgorithm, K: mm.k, NextDSID: mm.nextDSID,
			VDStates: make([]VDStateImage, len(mm.dstates)),
			Supers:   make([]SuperImage, 0, mm.virtuals.Len()),
		}
		nv := mm.NumVirtualStates()
		buckets := make([][]uint64, len(mm.dstates)*mm.k)
		ids := make([]uint64, 0, nv)
		for i, d := range mm.dstates {
			img := VDStateImage{ID: d.id, ByNode: buckets[i*mm.k : (i+1)*mm.k : (i+1)*mm.k]}
			for node, bucket := range d.byNode {
				for _, v := range bucket {
					ids = append(ids, v.list.actual.ID())
				}
				img.ByNode[node] = ids[len(ids)-len(bucket) : len(ids) : len(ids)]
			}
			sp.VDStates[i] = img
		}
		// The index walks in state id order, the order Supers is kept in.
		dsIDs := make([]int, nv)
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
// algorithm's invariants allow.
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
		if err := restoreDStates(&m.COW, k, dstates, lookup); err != nil {
			return nil, err
		}
		return m, nil
	case COWAlgorithm:
		m := &COW[S]{}
		if err := restoreDStates(m, k, sp.DStates, lookup); err != nil {
			return nil, err
		}
		return m, nil
	case SDSAlgorithm:
		return restoreSDS(sp, lookup)
	}
	return nil, fmt.Errorf("core: mapper snapshot with unknown algorithm %d", sp.Algorithm)
}

// restoreDStates fills m, an empty COW, with the dstates of a snapshot: per
// dstate, per node, an ordered bucket of state ids. Every id must resolve,
// to a state of its bucket's node, and appear once; every bucket must hold
// a state, and its states must share their history (conflict-freedom,
// §II-B). The buckets are sub-slices of one block, each capped at its own
// length.
func restoreDStates[S StateHandle[S]](m *COW[S], k int, dstates [][][]uint64, lookup func(uint64) (S, bool)) error {
	if len(dstates) == 0 {
		return fmt.Errorf("core: mapper snapshot with no dstates")
	}
	m.k, m.nRegister = k, k
	n := 0
	for _, src := range dstates {
		for _, bucket := range src {
			n += len(bucket)
		}
	}
	ids := make([]uint64, 0, n)
	for _, src := range dstates {
		for _, bucket := range src {
			ids = append(ids, bucket...)
		}
	}
	states := make([]S, n)
	m.index.Restored(sortedDistinct(ids))
	m.dstates = make([]*dstate[S], 0, len(dstates))
	for di, src := range dstates {
		if len(src) != k {
			return fmt.Errorf("core: dstate %d with %d nodes, want %d", di, len(src), k)
		}
		d := newDState[S](k)
		for node, ids := range src {
			if len(ids) == 0 {
				return fmt.Errorf("core: dstate %d has no states for node %d", di, node)
			}
			bucket := states[:len(ids):len(ids)]
			states = states[len(ids):]
			for i, id := range ids {
				s, ok := lookup(id)
				if !ok {
					return fmt.Errorf("core: mapper snapshot references unknown state %d", id)
				}
				if s.NodeID() != node {
					return fmt.Errorf("core: state %d is on node %d, bucket says %d", id, s.NodeID(), node)
				}
				if m.index.Get(id) != nil {
					return fmt.Errorf("core: state %d in two dstates", id)
				}
				bucket[i] = s
				m.index.Set(id, d)
			}
			if len(bucket) > 1 {
				h := bucket[0].HistoryHash()
				for _, s := range bucket[1:] {
					if s.HistoryHash() != h {
						return fmt.Errorf("core: dstate %d node %d holds conflicting states %d and %d",
							di, node, bucket[0].ID(), s.ID())
					}
				}
			}
			d.byNode[node] = bucket
		}
		m.dstates = append(m.dstates, d)
	}
	return nil
}

// restoreSDS is RestoreMapper for SDS. It makes each dstate's virtual
// states as one block, as MapSend's splits do, and queues each on a
// pending list of its actual state. That list is found through the state's
// super-dstate image, by SearchIDs: the images must be in strictly
// ascending state id order. It then links each super-dstate in its stored
// order, through a scratch slot per dstate id. SDS deletes no dstate, so a
// snapshot must hold every dstate id below NextDSID exactly once; both
// tables by dstate id are then as long as the dstate list.
func restoreSDS[S StateHandle[S]](sp *MapperSnapshot, lookup func(uint64) (S, bool)) (Mapper[S], error) {
	k := sp.K
	nd := len(sp.VDStates)
	if nd == 0 {
		return nil, fmt.Errorf("core: SDS snapshot with no dstates")
	}
	if sp.NextDSID != nd {
		return nil, fmt.Errorf("core: SDS snapshot holds %d dstates, but %d were created (SDS deletes none)",
			nd, sp.NextDSID)
	}
	supers := sp.Supers
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
		actual[j] = s
	}
	m := &SDS[S]{k: k, nRegister: k, nextDSID: sp.NextDSID}
	// The super-dstate images' state ids, ascending: the virtual states'
	// index, and the list each state id's image is found in (SearchIDs).
	superIDs := make([]uint64, len(supers))
	for j, si := range supers {
		superIDs[j] = si.StateID
	}
	m.virtuals.Restored(superIDs)
	m.dstates = make([]*vDState[S], 0, nd)
	byID := make([]*vDState[S], nd)
	// pending[j] heads the virtual states of supers[j]'s state made so far,
	// newest first, linked through link[0] until their list is built.
	pending := make([]*vstate[S], len(supers))
	// hist[j] is supers[j]'s state's history hash where hashed[j].
	hist := make([]uint64, len(supers))
	hashed := make([]bool, len(supers))
	for _, img := range sp.VDStates {
		if img.ID < 0 || img.ID >= nd {
			return nil, fmt.Errorf("core: SDS dstate id %d outside [0,%d)", img.ID, nd)
		}
		if byID[img.ID] != nil {
			return nil, fmt.Errorf("core: SDS dstate id %d twice", img.ID)
		}
		if len(img.ByNode) != k {
			return nil, fmt.Errorf("core: SDS dstate %d with %d nodes, want %d", img.ID, len(img.ByNode), k)
		}
		total := 0
		for node, ids := range img.ByNode {
			if len(ids) == 0 {
				return nil, fmt.Errorf("core: SDS dstate %d has no states for node %d", img.ID, node)
			}
			total += len(ids)
		}
		d := &vDState[S]{id: img.ID, byNode: make([][]*vstate[S], k)}
		block := make([]vstate[S], total)
		ptrs := make([]*vstate[S], total)
		off := 0
		for node, ids := range img.ByNode {
			var h0 uint64 // the history of the bucket's first state
			for i, id := range ids {
				j, ok := SearchIDs(superIDs, id)
				if !ok {
					if _, known := lookup(id); !known {
						return nil, fmt.Errorf("core: mapper snapshot references unknown state %d", id)
					}
					return nil, fmt.Errorf("core: state %d in SDS dstate %d not claimed by any super-dstate", id, img.ID)
				}
				s := actual[j]
				if s.NodeID() != node {
					return nil, fmt.Errorf("core: state %d is on node %d, bucket says %d", id, s.NodeID(), node)
				}
				// A state's entries in one dstate are queued one after
				// another, so a second one finds the first at the head.
				if p := pending[j]; p != nil && p.ds == d {
					return nil, fmt.Errorf("core: state %d twice in SDS dstate %d", id, img.ID)
				}
				// Conflict-freedom (§II-B), hashing each state's history
				// once however many buckets it is in.
				if len(ids) > 1 {
					if !hashed[j] {
						hist[j], hashed[j] = s.HistoryHash(), true
					}
					if i == 0 {
						h0 = hist[j]
					} else if hist[j] != h0 {
						return nil, fmt.Errorf("core: SDS dstate %d node %d holds conflicting states %d and %d",
							img.ID, node, ids[0], id)
					}
				}
				v := &block[off+i]
				v.ds, v.link[0] = d, pending[j]
				pending[j] = v
				ptrs[off+i] = v
			}
			d.byNode[node] = ptrs[off : off+len(ids) : off+len(ids)]
			off += len(ids)
		}
		byID[img.ID] = d
		m.dstates = append(m.dstates, d)
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

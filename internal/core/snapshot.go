// Mapper snapshots: a plain-data mirror of each algorithm's grouping
// structure, referencing execution states by id only. SnapshotMapper
// flattens a mapper for the checkpoint subsystem; RestoreMapper rebuilds
// it around already-restored states. Bucket and list orders are preserved
// exactly — COW's ScenarioFor picks bucket heads and SDS's send phases
// walk super-dstate lists in order, so a reordered restore would diverge
// from the interrupted run. Snapshots cross a disk round-trip, so every
// structural invariant is validated with errors, never panics.
package core

import (
	"fmt"
	"sort"
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
// engine steps, long after registration completes.
func SnapshotMapper[S StateHandle[S]](m Mapper[S]) (*MapperSnapshot, error) {
	switch mm := m.(type) {
	case *COB[S]:
		if mm.pending != nil {
			return nil, fmt.Errorf("core: snapshot of COB mid-registration")
		}
		sp := &MapperSnapshot{Algorithm: COBAlgorithm, K: mm.k}
		for _, sc := range mm.scenarios {
			row := make([]uint64, len(sc.states))
			for node, s := range sc.states {
				row[node] = s.ID()
			}
			sp.Scenarios = append(sp.Scenarios, row)
		}
		return sp, nil
	case *COW[S]:
		if mm.nRegister != mm.k {
			return nil, fmt.Errorf("core: snapshot of COW mid-registration")
		}
		sp := &MapperSnapshot{Algorithm: COWAlgorithm, K: mm.k}
		for _, d := range mm.dstates {
			ds := make([][]uint64, mm.k)
			for node, bucket := range d.byNode {
				ids := make([]uint64, len(bucket))
				for i, s := range bucket {
					ids[i] = s.ID()
				}
				ds[node] = ids
			}
			sp.DStates = append(sp.DStates, ds)
		}
		return sp, nil
	case *SDS[S]:
		if mm.nRegister != mm.k {
			return nil, fmt.Errorf("core: snapshot of SDS mid-registration")
		}
		sp := &MapperSnapshot{Algorithm: SDSAlgorithm, K: mm.k, NextDSID: mm.nextDSID}
		for _, d := range mm.dstates {
			img := VDStateImage{ID: d.id, ByNode: make([][]uint64, mm.k)}
			for node, bucket := range d.byNode {
				ids := make([]uint64, len(bucket))
				for i, v := range bucket {
					ids[i] = v.actual.ID()
				}
				img.ByNode[node] = ids
			}
			sp.VDStates = append(sp.VDStates, img)
		}
		supers := make([]SuperImage, 0, len(mm.virtuals))
		for s, l := range mm.virtuals {
			si := SuperImage{StateID: s.ID()}
			for v := l.head; v != nil; v = v.next {
				si.DStateIDs = append(si.DStateIDs, v.ds.id)
			}
			supers = append(supers, si)
		}
		sort.Slice(supers, func(i, j int) bool { return supers[i].StateID < supers[j].StateID })
		sp.Supers = supers
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
	resolve := func(id uint64, node int) (S, error) {
		s, ok := lookup(id)
		if !ok {
			var zero S
			return zero, fmt.Errorf("core: mapper snapshot references unknown state %d", id)
		}
		if s.NodeID() != node {
			var zero S
			return zero, fmt.Errorf("core: state %d is on node %d, bucket says %d", id, s.NodeID(), node)
		}
		return s, nil
	}
	switch sp.Algorithm {
	case COBAlgorithm:
		m := &COB[S]{k: k, index: make(map[S]*dscenario[S]), nRegister: k}
		for _, row := range sp.Scenarios {
			if len(row) != k {
				return nil, fmt.Errorf("core: COB dscenario with %d nodes, want %d", len(row), k)
			}
			sc := &dscenario[S]{states: make([]S, k)}
			for node, id := range row {
				s, err := resolve(id, node)
				if err != nil {
					return nil, err
				}
				if _, dup := m.index[s]; dup {
					return nil, fmt.Errorf("core: state %d in two COB dscenarios", id)
				}
				sc.states[node] = s
				m.index[s] = sc
			}
			m.scenarios = append(m.scenarios, sc)
		}
		if len(m.scenarios) == 0 {
			return nil, fmt.Errorf("core: COB snapshot with no dscenarios")
		}
		return m, nil
	case COWAlgorithm:
		m := &COW[S]{k: k, index: make(map[S]*dstate[S]), nRegister: k}
		for di, src := range sp.DStates {
			if len(src) != k {
				return nil, fmt.Errorf("core: COW dstate %d with %d nodes, want %d", di, len(src), k)
			}
			d := newDState[S](k)
			for node, ids := range src {
				if len(ids) == 0 {
					return nil, fmt.Errorf("core: COW dstate %d has no states for node %d", di, node)
				}
				for _, id := range ids {
					s, err := resolve(id, node)
					if err != nil {
						return nil, err
					}
					if _, dup := m.index[s]; dup {
						return nil, fmt.Errorf("core: state %d in two COW dstates", id)
					}
					d.add(s)
					m.index[s] = d
				}
			}
			m.dstates = append(m.dstates, d)
		}
		if len(m.dstates) == 0 {
			return nil, fmt.Errorf("core: COW snapshot with no dstates")
		}
		return m, nil
	case SDSAlgorithm:
		m := &SDS[S]{k: k, virtuals: make(map[S]*vlist[S], len(sp.Supers)), nRegister: k, nextDSID: sp.NextDSID}
		type vkey struct {
			sid uint64
			ds  int
		}
		nv := 0
		for _, img := range sp.VDStates {
			for _, ids := range img.ByNode {
				nv += len(ids)
			}
		}
		vmap := make(map[vkey]*vstate[S], nv)
		seenDS := make(map[int]bool, len(sp.VDStates))
		for _, img := range sp.VDStates {
			if img.ID < 0 || img.ID >= sp.NextDSID {
				return nil, fmt.Errorf("core: SDS dstate id %d outside [0,%d)", img.ID, sp.NextDSID)
			}
			if seenDS[img.ID] {
				return nil, fmt.Errorf("core: SDS dstate id %d twice", img.ID)
			}
			seenDS[img.ID] = true
			if len(img.ByNode) != k {
				return nil, fmt.Errorf("core: SDS dstate %d with %d nodes, want %d", img.ID, len(img.ByNode), k)
			}
			d := &vDState[S]{id: img.ID, byNode: make([][]*vstate[S], k)}
			for node, ids := range img.ByNode {
				if len(ids) == 0 {
					return nil, fmt.Errorf("core: SDS dstate %d has no states for node %d", img.ID, node)
				}
				for _, id := range ids {
					s, err := resolve(id, node)
					if err != nil {
						return nil, err
					}
					key := vkey{sid: id, ds: img.ID}
					if vmap[key] != nil {
						return nil, fmt.Errorf("core: state %d twice in SDS dstate %d", id, img.ID)
					}
					v := &vstate[S]{actual: s}
					d.add(v)
					vmap[key] = v
				}
			}
			m.dstates = append(m.dstates, d)
		}
		if len(m.dstates) == 0 {
			return nil, fmt.Errorf("core: SDS snapshot with no dstates")
		}
		claimed := 0
		for _, si := range sp.Supers {
			s, ok := lookup(si.StateID)
			if !ok {
				return nil, fmt.Errorf("core: super-dstate of unknown state %d", si.StateID)
			}
			if _, dup := m.virtuals[s]; dup {
				return nil, fmt.Errorf("core: state %d has two super-dstates", si.StateID)
			}
			l := &vlist[S]{}
			// prepend builds the list back-to-front, so feed it the stored
			// head-first order in reverse.
			for i := len(si.DStateIDs) - 1; i >= 0; i-- {
				v := vmap[vkey{sid: si.StateID, ds: si.DStateIDs[i]}]
				if v == nil {
					return nil, fmt.Errorf("core: state %d's super-dstate names dstate %d it is not in",
						si.StateID, si.DStateIDs[i])
				}
				if v.list != nil { // prepend sets it
					return nil, fmt.Errorf("core: state %d lists dstate %d twice", si.StateID, si.DStateIDs[i])
				}
				claimed++
				l.prepend(v)
			}
			m.virtuals[s] = l
		}
		if claimed != len(vmap) {
			return nil, fmt.Errorf("core: %d virtual states not claimed by any super-dstate",
				len(vmap)-claimed)
		}
		return m, nil
	}
	return nil, fmt.Errorf("core: mapper snapshot with unknown algorithm %d", sp.Algorithm)
}

package core

import "fmt"

// COB implements the Copy On Branch state mapping algorithm (§III-A). It
// mimics the symbolic execution of a monolithic network simulation: every
// local branch of one node state forks every other state of the branching
// state's dscenario, so packet delivery is a constant-time lookup but the
// number of duplicate states is maximal.
//
// A dscenario is a dstate whose every bucket holds one state, so COB is
// COW with its own branch rule: it keeps COW's dstates and answers every
// query as COW does. Since no bucket ever holds a second state, COW's
// MapSend never meets a rival and delivers in place — the lookup of §III-A
// ("identifying the receiver simply by examining the sender's dscenario and
// the destination node").
type COB[S StateHandle[S]] struct {
	COW[S]
}

// NewCOB returns an empty COB mapper for a k-node network.
func NewCOB[S StateHandle[S]](k int) *COB[S] {
	return &COB[S]{COW: *NewCOW[S](k)}
}

// Algorithm implements Mapper.
func (m *COB[S]) Algorithm() Algorithm { return COBAlgorithm }

// OnBranch implements Mapper: the dscenario containing orig is duplicated
// in full — sibling replaces orig, every other member is forked (paper
// Figure 3: "the state mapping phase forks the states on node 2 and 3 to
// create two separate dscenarios as a direct response to the first
// branch"). The fresh dscenario's buckets are one-element views of one
// block.
func (m *COB[S]) OnBranch(orig, sibling S) []S {
	d := m.index.Get(orig.ID())
	if d == nil {
		panic(fmt.Sprintf("core: COB.OnBranch of unknown state %d", orig.ID()))
	}
	fresh := m.push()
	block := make([]S, m.k)
	m.index.Set(sibling.ID(), fresh)
	forked := make([]S, 0, m.k-1)
	for node, bucket := range d.byNode {
		if st := bucket[0]; st == orig {
			block[node] = sibling
		} else {
			block[node] = st.Fork()
			m.index.Set(block[node].ID(), fresh)
			forked = append(forked, block[node])
		}
		fresh.byNode[node] = block[node : node+1 : node+1]
	}
	return forked
}

// CheckInvariants implements Mapper: COW's invariants, and every bucket
// holds exactly one state — each dstate is one dscenario.
func (m *COB[S]) CheckInvariants() error {
	if err := m.COW.CheckInvariants(); err != nil {
		return err
	}
	return m.checkScenarios()
}

// checkScenarios checks that every bucket holds exactly one state; a
// restore refuses a snapshot whose dstates do not.
func (m *COB[S]) checkScenarios() error {
	for di, d := range m.dstates {
		for node, bucket := range d.byNode {
			if len(bucket) != 1 {
				return fmt.Errorf("core: COB: dscenario %d holds %d states for node %d", di, len(bucket), node)
			}
		}
	}
	return nil
}

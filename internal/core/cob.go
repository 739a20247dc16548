package core

import (
	"fmt"
	"math/big"
)

// dscenario is COB's grouping unit: exactly one execution state per node,
// the natural representation of one concrete network execution (§III-A).
type dscenario[S StateHandle[S]] struct {
	states []S // indexed by node id
}

// COB implements the Copy On Branch state mapping algorithm (§III-A). It
// mimics the symbolic execution of a monolithic network simulation: every
// local branch of one node state forks every other state of the branching
// state's dscenario, so packet delivery is a constant-time lookup but the
// number of duplicate states is maximal.
type COB[S StateHandle[S]] struct {
	k         int
	scenarios []*dscenario[S]
	index     IDIndex[*dscenario[S]] // by state id
	pending   *dscenario[S]          // initial dscenario under construction
	nRegister int
}

// NewCOB returns an empty COB mapper for a k-node network.
func NewCOB[S StateHandle[S]](k int) *COB[S] {
	var zero S
	init := &dscenario[S]{states: make([]S, k)}
	for i := range init.states {
		init.states[i] = zero
	}
	return &COB[S]{k: k, pending: init}
}

// Algorithm implements Mapper.
func (m *COB[S]) Algorithm() Algorithm { return COBAlgorithm }

// Register implements Mapper.
func (m *COB[S]) Register(s S) {
	node := s.NodeID()
	if node < 0 || node >= m.k {
		panic(fmt.Sprintf("core: COB.Register node %d out of range", node))
	}
	if m.pending == nil {
		panic("core: COB.Register after mapping started")
	}
	m.pending.states[node] = s
	m.index.Set(s.ID(), m.pending)
	m.nRegister++
	if m.nRegister == m.k {
		m.scenarios = append(m.scenarios, m.pending)
		m.pending = nil
	}
}

// OnBranch implements Mapper: the dscenario containing orig is duplicated
// in full — sibling replaces orig, every other member is forked (paper
// Figure 3: "the state mapping phase forks the states on node 2 and 3 to
// create two separate dscenarios as a direct response to the first
// branch").
func (m *COB[S]) OnBranch(orig, sibling S) []S {
	n := m.index.Get(orig.ID())
	if n == nil {
		panic(fmt.Sprintf("core: COB.OnBranch of unknown state %d", orig.ID()))
	}
	fresh := &dscenario[S]{states: make([]S, m.k)}
	m.index.Set(sibling.ID(), fresh)
	forked := make([]S, 0, m.k-1)
	for node, st := range n.states {
		if st == orig {
			fresh.states[node] = sibling
			continue
		}
		cp := st.Fork()
		fresh.states[node] = cp
		m.index.Set(cp.ID(), fresh)
		forked = append(forked, cp)
	}
	m.scenarios = append(m.scenarios, fresh)
	return forked
}

// MapSend implements Mapper: within a dscenario the receiver is simply the
// destination node's unique state; no conflicts can arise (§III-A: "the
// delivery of a transmission is processed by identifying the receiver
// simply by examining the sender's dscenario and the destination node").
func (m *COB[S]) MapSend(sender S, dst int) (Delivery[S], error) {
	if err := validateSend[S](m.k, sender, dst); err != nil {
		return Delivery[S]{}, err
	}
	n := m.index.Get(sender.ID())
	if n == nil {
		return Delivery[S]{}, fmt.Errorf("core: COB.MapSend of unknown state %d", sender.ID())
	}
	return Delivery[S]{Receivers: []S{n.states[dst]}}, nil
}

// ScenarioFor implements Mapper: the state's own dscenario.
func (m *COB[S]) ScenarioFor(s S) ([]S, bool) {
	n := m.index.Get(s.ID())
	if n == nil {
		return nil, false
	}
	return append([]S(nil), n.states...), true
}

// NumStates implements Mapper.
func (m *COB[S]) NumStates() int { return m.index.Len() }

// NumGroups implements Mapper.
func (m *COB[S]) NumGroups() int { return len(m.scenarios) }

// DScenarioCount implements Mapper.
func (m *COB[S]) DScenarioCount() *big.Int {
	return big.NewInt(int64(len(m.scenarios)))
}

// Explode implements Mapper; for COB the dscenarios are already explicit.
func (m *COB[S]) Explode(limit int) [][]S {
	var out [][]S
	m.ExplodeFunc(limit, func(sc []S) bool {
		out = append(out, sc)
		return true
	})
	return out
}

// ExplodeFunc implements Mapper.
func (m *COB[S]) ExplodeFunc(limit int, fn func([]S) bool) {
	n := len(m.scenarios)
	if limit > 0 && limit < n {
		n = limit
	}
	for _, sc := range m.scenarios[:n] {
		if !fn(append([]S(nil), sc.states...)) {
			return
		}
	}
}

// ForEachState implements Mapper; visiting order is (dscenario creation,
// node id).
func (m *COB[S]) ForEachState(f func(S)) {
	for _, sc := range m.scenarios {
		for _, st := range sc.states {
			f(st)
		}
	}
}

// CheckInvariants implements Mapper: every dscenario holds exactly one
// state per node, every state belongs to exactly one dscenario, and the
// histories within a dscenario are mutually consistent is implied by
// construction (delivery is always within the dscenario).
func (m *COB[S]) CheckInvariants() error {
	if m.pending != nil {
		return fmt.Errorf("core: COB: registration incomplete (%d of %d)", m.nRegister, m.k)
	}
	seen := make(map[S]bool, m.index.Len())
	for si, sc := range m.scenarios {
		if len(sc.states) != m.k {
			return fmt.Errorf("core: COB: dscenario %d has %d slots, want %d", si, len(sc.states), m.k)
		}
		for node, st := range sc.states {
			if st.NodeID() != node {
				return fmt.Errorf("core: COB: dscenario %d slot %d holds state of node %d",
					si, node, st.NodeID())
			}
			if seen[st] {
				return fmt.Errorf("core: COB: state %d appears in two dscenarios", st.ID())
			}
			seen[st] = true
			if m.index.Get(st.ID()) != sc {
				return fmt.Errorf("core: COB: index of state %d is stale", st.ID())
			}
		}
	}
	if len(seen) != m.index.Len() {
		return fmt.Errorf("core: COB: index has %d states, scenarios have %d", m.index.Len(), len(seen))
	}
	return nil
}

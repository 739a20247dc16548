package core

import "fmt"

// COW implements the Copy On Write state mapping algorithm (§III-B).
// Local branches are free: the sibling simply joins its predecessor's
// dstate. Conflicts are resolved lazily at transmission time: when the
// sender has rivals (other states of its node in the same dstate), the
// dstate is split — the sender moves to a fresh dstate together with
// forked copies of all targets and bystanders, and the packet is delivered
// in the fresh dstate.
type COW[S StateHandle[S]] struct {
	dtable[S, S]
	index IDIndex[*dstate[S]] // by state id
}

// NewCOW returns an empty COW mapper for a k-node network.
func NewCOW[S StateHandle[S]](k int) *COW[S] {
	m := &COW[S]{dtable: dtable[S, S]{k: k, actual: self[S]}}
	m.push()
	return m
}

// self is COW's projection of an entry, itself a state, to its state.
func self[S any](s S) S { return s }

// Algorithm implements Mapper.
func (m *COW[S]) Algorithm() Algorithm { return COWAlgorithm }

// Register implements Mapper.
func (m *COW[S]) Register(s S) { m.index.Set(s.ID(), m.register(s, s)) }

// OnBranch implements Mapper: "branching a state due to symbolic input
// will simply add the newly created state to the same dstate as its
// predecessor without forking the rest of the dstate's states" (§III-B).
func (m *COW[S]) OnBranch(orig, sibling S) []S {
	d := m.index.Get(orig.ID())
	if d == nil {
		panic(fmt.Sprintf("core: COW.OnBranch of unknown state %d", orig.ID()))
	}
	d.add(sibling.NodeID(), sibling)
	m.index.Set(sibling.ID(), d)
	return nil
}

// MapSend implements Mapper (§III-B, Figure 4). With no rivals the packet
// is delivered in place to all targets. With rivals, a fresh dstate is
// created holding the sender plus forked copies of every non-rival state
// (targets and bystanders); the copies of the targets receive the packet.
func (m *COW[S]) MapSend(sender S, dst int) (Delivery[S], error) {
	if err := validateSend[S](m.k, sender, dst); err != nil {
		return Delivery[S]{}, err
	}
	d := m.index.Get(sender.ID())
	if d == nil {
		return Delivery[S]{}, fmt.Errorf("core: COW.MapSend of unknown state %d", sender.ID())
	}
	senderNode := sender.NodeID()
	if len(d.byNode[senderNode]) == 1 {
		// Every dscenario covered by d has this sender; deliver in place.
		return Delivery[S]{Receivers: append([]S(nil), d.byNode[dst]...)}, nil
	}
	// Split: sender leaves d; targets and bystanders are forked into the
	// fresh dstate; rivals stay behind with the originals. The delivery's
	// lists are made at their final size.
	fresh, total := m.split(d, senderNode, sender)
	m.index.Set(sender.ID(), fresh)
	delivery := Delivery[S]{
		Receivers: make([]S, 0, len(d.byNode[dst])),
		Forked:    make([]S, 0, total),
	}
	for node, bucket := range d.byNode {
		if node == senderNode {
			continue
		}
		copies := fresh.byNode[node]
		for i, st := range bucket {
			cp := st.Fork()
			copies[i] = cp
			m.index.Set(cp.ID(), fresh)
			delivery.Forked = append(delivery.Forked, cp)
			if node == dst {
				delivery.Receivers = append(delivery.Receivers, cp)
			}
		}
	}
	return delivery, nil
}

// ScenarioFor implements Mapper: s plus the first same-dstate state of
// every other node.
func (m *COW[S]) ScenarioFor(s S) ([]S, bool) {
	d := m.index.Get(s.ID())
	if d == nil {
		return nil, false
	}
	return m.scenarioFor(d, s), true
}

// NumStates implements Mapper.
func (m *COW[S]) NumStates() int { return m.index.Len() }

// ForEachState implements Mapper; visiting order is (dstate creation,
// node id, insertion).
func (m *COW[S]) ForEachState(f func(S)) {
	for _, d := range m.dstates {
		for _, bucket := range d.byNode {
			for _, st := range bucket {
				f(st)
			}
		}
	}
}

// CheckInvariants implements Mapper: the bucket invariants of every
// dstate, and states belong to exactly one dstate, the one the index names.
func (m *COW[S]) CheckInvariants() error {
	seen := make(map[S]bool, m.index.Len())
	err := m.checkBuckets("COW", func(d *dstate[S], st S) error {
		if seen[st] {
			return fmt.Errorf("core: COW: state %d appears in two dstates", st.ID())
		}
		seen[st] = true
		if m.index.Get(st.ID()) != d {
			return fmt.Errorf("core: COW: index of state %d is stale", st.ID())
		}
		return nil
	})
	if err == nil && len(seen) != m.index.Len() {
		err = fmt.Errorf("core: COW: index has %d states, dstates have %d", m.index.Len(), len(seen))
	}
	return err
}

package core

import (
	"fmt"
	"math/big"
	"math/bits"
	"slices"
)

// dstate is COW's grouping unit (§III-B): a set of pairwise conflict-free
// states, at least one per node, possibly several per node. All states of
// one node within a dstate share the same communication history, so a
// dstate compactly represents the cartesian product of its per-node state
// sets as dscenarios.
type dstate[S StateHandle[S]] struct {
	byNode [][]S // indexed by node id
}

func newDState[S StateHandle[S]](k int) *dstate[S] {
	return &dstate[S]{byNode: make([][]S, k)}
}

func (d *dstate[S]) add(s S) { d.byNode[s.NodeID()] = append(d.byNode[s.NodeID()], s) }

// remove takes s out of its node's bucket in place, keeping the order of
// the rest; as in vDState.remove, no other holder views a bucket: a split's
// buckets and a restore's are sub-slices of one block, each capped at its
// own length.
func (d *dstate[S]) remove(s S) bool {
	node := s.NodeID()
	if i := slices.Index(d.byNode[node], s); i >= 0 {
		d.byNode[node] = slices.Delete(d.byNode[node], i, i+1)
		return true
	}
	return false
}

// scenarioCount returns the number of dscenarios a mapper's dstates
// represent — the sum over them of the product of their per-node bucket
// sizes — exactly: in uint64 arithmetic, and in big.Int only for a product
// that does not fit and for the carries of the sum.
func scenarioCount[D, T any](dstates []D, byNode func(D) [][]T) *big.Int {
	var sum, carries uint64
	large := new(big.Int) // the sum of the products past uint64
	for _, d := range dstates {
		p := uint64(1)
		for _, bucket := range byNode(d) {
			hi, lo := bits.Mul64(p, uint64(len(bucket)))
			if p = lo; hi != 0 {
				n := big.NewInt(1)
				for _, bucket := range byNode(d) {
					n.Mul(n, big.NewInt(int64(len(bucket))))
				}
				large.Add(large, n)
				p = 0
				break
			}
		}
		var carry uint64
		sum, carry = bits.Add64(sum, p, 0)
		carries += carry
	}
	total := new(big.Int).Lsh(new(big.Int).SetUint64(carries), 64)
	return total.Add(total.Add(total, new(big.Int).SetUint64(sum)), large)
}

// COW implements the Copy On Write state mapping algorithm (§III-B).
// Local branches are free: the sibling simply joins its predecessor's
// dstate. Conflicts are resolved lazily at transmission time: when the
// sender has rivals (other states of its node in the same dstate), the
// dstate is split — the sender moves to a fresh dstate together with
// forked copies of all targets and bystanders, and the packet is delivered
// in the fresh dstate.
type COW[S StateHandle[S]] struct {
	k         int
	dstates   []*dstate[S]
	index     IDIndex[*dstate[S]] // by state id
	nRegister int
}

// NewCOW returns an empty COW mapper for a k-node network.
func NewCOW[S StateHandle[S]](k int) *COW[S] {
	m := &COW[S]{k: k}
	m.dstates = append(m.dstates, newDState[S](k))
	return m
}

// Algorithm implements Mapper.
func (m *COW[S]) Algorithm() Algorithm { return COWAlgorithm }

// Register implements Mapper.
func (m *COW[S]) Register(s S) {
	node := s.NodeID()
	if node < 0 || node >= m.k {
		panic(fmt.Sprintf("core: COW.Register node %d out of range", node))
	}
	d := m.dstates[0]
	if len(d.byNode[node]) != 0 {
		panic(fmt.Sprintf("core: COW.Register node %d twice", node))
	}
	d.add(s)
	m.index.Set(s.ID(), d)
	m.nRegister++
}

// OnBranch implements Mapper: "branching a state due to symbolic input
// will simply add the newly created state to the same dstate as its
// predecessor without forking the rest of the dstate's states" (§III-B).
func (m *COW[S]) OnBranch(orig, sibling S) []S {
	d := m.index.Get(orig.ID())
	if d == nil {
		panic(fmt.Sprintf("core: COW.OnBranch of unknown state %d", orig.ID()))
	}
	d.add(sibling)
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
	hasRival := len(d.byNode[senderNode]) > 1
	if !hasRival {
		// Every dscenario covered by d has this sender; deliver in place.
		return Delivery[S]{Receivers: append([]S(nil), d.byNode[dst]...)}, nil
	}
	// Split: sender leaves d; targets and bystanders are forked into the
	// fresh dstate; rivals stay behind with the originals. The fresh
	// dstate's buckets are carved from one block, the sender's first, each
	// capped at its own length, so a later add reallocates that bucket
	// alone; the delivery's lists are made at their final size.
	d.remove(sender)
	total := 0
	for node, bucket := range d.byNode {
		if node != senderNode {
			total += len(bucket)
		}
	}
	fresh := newDState[S](m.k)
	block := make([]S, 1+total)
	block[0] = sender
	fresh.byNode[senderNode] = block[:1:1]
	m.index.Set(sender.ID(), fresh)
	delivery := Delivery[S]{
		Receivers: make([]S, 0, len(d.byNode[dst])),
		Forked:    make([]S, 0, total),
	}
	off := 1
	for node := 0; node < m.k; node++ {
		if node == senderNode {
			continue
		}
		n := len(d.byNode[node])
		copies := block[off : off+n : off+n]
		for i, st := range d.byNode[node] {
			cp := st.Fork()
			copies[i] = cp
			m.index.Set(cp.ID(), fresh)
			delivery.Forked = append(delivery.Forked, cp)
			if node == dst {
				delivery.Receivers = append(delivery.Receivers, cp)
			}
		}
		fresh.byNode[node] = copies
		off += n
	}
	m.dstates = append(m.dstates, fresh)
	return delivery, nil
}

// ScenarioFor implements Mapper: s plus the first same-dstate state of
// every other node (all selections within a dstate are conflict-free).
func (m *COW[S]) ScenarioFor(s S) ([]S, bool) {
	d := m.index.Get(s.ID())
	if d == nil {
		return nil, false
	}
	out := make([]S, m.k)
	for node := 0; node < m.k; node++ {
		if node == s.NodeID() {
			out[node] = s
		} else {
			out[node] = d.byNode[node][0]
		}
	}
	return out, true
}

// NumStates implements Mapper.
func (m *COW[S]) NumStates() int { return m.index.Len() }

// NumGroups implements Mapper.
func (m *COW[S]) NumGroups() int { return len(m.dstates) }

// DScenarioCount implements Mapper: dstates represent disjoint dscenario
// sets, each the cartesian product of its per-node buckets.
func (m *COW[S]) DScenarioCount() *big.Int {
	return scenarioCount(m.dstates, func(d *dstate[S]) [][]S { return d.byNode })
}

// Explode implements Mapper: enumerate the per-node cartesian product of
// every dstate (§IV-C "deliberate state explosion").
func (m *COW[S]) Explode(limit int) [][]S { return explode(limit, m.ExplodeFunc) }

// ExplodeFunc implements Mapper.
func (m *COW[S]) ExplodeFunc(limit int, fn func([]S) bool) {
	emitted := 0
	for _, d := range m.dstates {
		if !explodeDState(d.byNode, limit, &emitted, fn) {
			return
		}
	}
}

// explode is Explode for a mapper's ExplodeFunc: it collects what that
// streams.
func explode[S any](limit int, explodeFunc func(int, func([]S) bool)) [][]S {
	var out [][]S
	explodeFunc(limit, func(sc []S) bool {
		out = append(out, sc)
		return true
	})
	return out
}

// explodeDState streams the cartesian product of per-node buckets of
// states, stopping when the shared counter reaches limit (limit > 0) or
// fn returns false; the return value reports whether to continue with
// further dstates.
func explodeDState[S any](byNode [][]S, limit int, emitted *int, fn func([]S) bool) bool {
	k := len(byNode)
	pick := make([]int, k)
	for {
		sc := make([]S, k)
		for node := 0; node < k; node++ {
			if len(byNode[node]) == 0 {
				return true // structurally impossible; guarded by invariants
			}
			sc[node] = byNode[node][pick[node]]
		}
		*emitted++
		if !fn(sc) {
			return false
		}
		if limit > 0 && *emitted >= limit {
			return false
		}
		// Advance the odometer.
		i := k - 1
		for i >= 0 {
			pick[i]++
			if pick[i] < len(byNode[i]) {
				break
			}
			pick[i] = 0
			i--
		}
		if i < 0 {
			return true
		}
	}
}

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

// CheckInvariants implements Mapper: every dstate holds at least one state
// per node; states belong to exactly one dstate; all states of one node in
// a dstate have identical communication histories (conflict-freedom,
// §II-B).
func (m *COW[S]) CheckInvariants() error {
	if m.nRegister != m.k {
		return fmt.Errorf("core: COW: registration incomplete (%d of %d)", m.nRegister, m.k)
	}
	seen := make(map[S]bool, m.index.Len())
	for di, d := range m.dstates {
		if len(d.byNode) != m.k {
			return fmt.Errorf("core: COW: dstate %d has %d nodes, want %d", di, len(d.byNode), m.k)
		}
		for node, bucket := range d.byNode {
			if len(bucket) == 0 {
				return fmt.Errorf("core: COW: dstate %d has no state for node %d", di, node)
			}
			for _, st := range bucket {
				if st.NodeID() != node {
					return fmt.Errorf("core: COW: dstate %d bucket %d holds state of node %d",
						di, node, st.NodeID())
				}
				if seen[st] {
					return fmt.Errorf("core: COW: state %d appears in two dstates", st.ID())
				}
				seen[st] = true
				if m.index.Get(st.ID()) != d {
					return fmt.Errorf("core: COW: index of state %d is stale", st.ID())
				}
			}
			// Conflict-freedom: same node, same dstate => same history.
			for _, st := range bucket[1:] {
				if st.HistoryHash() != bucket[0].HistoryHash() {
					return fmt.Errorf("core: COW: dstate %d node %d holds conflicting states %d and %d",
						di, node, bucket[0].ID(), st.ID())
				}
			}
		}
	}
	if len(seen) != m.index.Len() {
		return fmt.Errorf("core: COW: index has %d states, dstates have %d", m.index.Len(), len(seen))
	}
	return nil
}

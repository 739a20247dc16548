package core

import (
	"fmt"
	"math/big"
)

// vstate is a virtual state (§III-C): a lightweight reference to an actual
// execution state, living in exactly one dstate. An actual state has one
// or more virtual states; the set of dstates reachable through them is the
// state's super-dstate. Virtual states of one actual state form an
// intrusive singly-linked list (next) — appends during dstate splits are
// the hottest operation of large runs and must not reallocate. list points
// back at that list, so a send reaches a virtual state's super-dstate
// without looking its actual state up.
type vstate[S StateHandle[S]] struct {
	actual S
	ds     *vDState[S]
	next   *vstate[S]
	list   *vlist[S]
	mark   uint64 // == SDS.epoch: does not receive the current send
}

// vlist is the super-dstate of one actual state: its virtual states.
type vlist[S StateHandle[S]] struct {
	head *vstate[S]
	n    int
	seen uint64 // == SDS.epoch: already a target of the current send
}

// prepend makes v the head of l; every list insertion goes through here,
// which keeps v.list right.
func (l *vlist[S]) prepend(v *vstate[S]) {
	v.next = l.head
	v.list = l
	l.head = v
	l.n++
}

// vDState is a dstate over virtual states.
type vDState[S StateHandle[S]] struct {
	id     int
	byNode [][]*vstate[S] // indexed by node id
	// While sendEpoch == SDS.epoch the dstate holds a virtual state of the
	// current sender, and rivals says whether the sender's node has any
	// other virtual state here.
	sendEpoch uint64
	rivals    bool
}

func (d *vDState[S]) add(v *vstate[S]) {
	v.ds = d
	d.byNode[v.actual.NodeID()] = append(d.byNode[v.actual.NodeID()], v)
}

func (d *vDState[S]) remove(v *vstate[S]) bool {
	node := v.actual.NodeID()
	bucket := d.byNode[node]
	for i, u := range bucket {
		if u == v {
			d.byNode[node] = append(bucket[:i:i], bucket[i+1:]...)
			return true
		}
	}
	return false
}

// SDS implements the Super DStates mapping algorithm (§III-C):
// conceptually COW executed on virtual states, so that a bystander's
// virtual state is forked while the actual bystander state is executed
// only once. Only target states are ever forked — at most once per
// transmission — which yields the algorithm's non-duplication property
// (§III-D).
type SDS[S StateHandle[S]] struct {
	k         int
	dstates   []*vDState[S]
	virtuals  map[S]*vlist[S] // actual state -> its super-dstate
	nRegister int
	nextDSID  int
	// epoch numbers the sends; a stamp equal to it was set by the current
	// one. Stamps are transient: snapshots leave them out, and a restored
	// mapper starts at epoch 0 with every stamp 0.
	epoch uint64
}

// NewSDS returns an empty SDS mapper for a k-node network.
func NewSDS[S StateHandle[S]](k int) *SDS[S] {
	m := &SDS[S]{
		k:        k,
		virtuals: make(map[S]*vlist[S], k),
	}
	m.dstates = append(m.dstates, m.newDState())
	return m
}

func (m *SDS[S]) newDState() *vDState[S] {
	d := &vDState[S]{id: m.nextDSID, byNode: make([][]*vstate[S], m.k)}
	m.nextDSID++
	return d
}

// Algorithm implements Mapper.
func (m *SDS[S]) Algorithm() Algorithm { return SDSAlgorithm }

// Register implements Mapper.
func (m *SDS[S]) Register(s S) {
	node := s.NodeID()
	if node < 0 || node >= m.k {
		panic(fmt.Sprintf("core: SDS.Register node %d out of range", node))
	}
	d := m.dstates[0]
	if len(d.byNode[node]) != 0 {
		panic(fmt.Sprintf("core: SDS.Register node %d twice", node))
	}
	v := &vstate[S]{actual: s}
	d.add(v)
	l := &vlist[S]{}
	l.prepend(v)
	m.virtuals[s] = l
	m.nRegister++
}

// OnBranch implements Mapper: the sibling joins every dstate of its
// predecessor — COW's branch rule applied to each virtual state.
func (m *SDS[S]) OnBranch(orig, sibling S) []S {
	origList, ok := m.virtuals[orig]
	if !ok {
		panic(fmt.Sprintf("core: SDS.OnBranch of unknown state %d", orig.ID()))
	}
	sibList := &vlist[S]{}
	for vs := origList.head; vs != nil; vs = vs.next {
		v2 := &vstate[S]{actual: sibling}
		vs.ds.add(v2)
		sibList.prepend(v2)
	}
	m.virtuals[sibling] = sibList
	return nil
}

// MapSend implements Mapper, following the four phases of §III-C:
//
//  1. Finding targets: the actual states behind the virtual targets in
//     every dstate holding a virtual state of the sender.
//  2. Finding rivals: direct rivals share a dstate with a sending virtual
//     state; super-rivals share a dstate with a target but not the sender.
//  3. Forking condition: a target is forked (exactly once) iff any of its
//     virtual states will not receive the packet — i.e. it shares a
//     dstate with a direct rival, or it lives in a dstate without the
//     sender (super-rival dstates, Figure 7).
//  4. Virtual forking: dstates with direct rivals are split exactly as
//     COW splits dstates of actual states (Figure 8); bystander virtual
//     copies attach to the *same* actual state, so no bystander is ever
//     duplicated.
//
// The original target receives the packet; its fork does not.
func (m *SDS[S]) MapSend(sender S, dst int) (Delivery[S], error) {
	if err := validateSend[S](m.k, sender, dst); err != nil {
		return Delivery[S]{}, err
	}
	senderList, ok := m.virtuals[sender]
	if !ok {
		return Delivery[S]{}, fmt.Errorf("core: SDS.MapSend of unknown state %d", sender.ID())
	}
	senderNode := sender.NodeID()
	m.epoch++
	epoch := m.epoch

	// Phase 1+2: stamp every sender dstate and whether it holds direct
	// rivals — any virtual state of the sender's node besides the sending
	// one, which the bucket always holds — and collect the actual targets
	// with their super-dstates, each once, in first-seen order.
	var delivery Delivery[S]
	var targets []sendTarget[S]
	for vs := senderList.head; vs != nil; vs = vs.next {
		d := vs.ds
		d.sendEpoch, d.rivals = epoch, len(d.byNode[senderNode]) > 1
		for _, vt := range d.byNode[dst] {
			if l := vt.list; l.seen != epoch {
				l.seen = epoch
				delivery.Receivers = append(delivery.Receivers, vt.actual)
				targets = append(targets, sendTarget[S]{list: l})
			}
		}
	}

	// Phase 3: mark each target's non-receiving virtual states — those in
	// a dstate without the sender (super-rival case) or in one that will be
	// split (direct-rival case) — and fork every target that has one.
	for i := range targets {
		tg := &targets[i]
		fork := false
		for vt := tg.list.head; vt != nil; vt = vt.next {
			if d := vt.ds; d.sendEpoch != epoch || d.rivals {
				vt.mark = epoch
				fork = true
			}
		}
		if fork {
			tg.fork = delivery.Receivers[i].Fork()
			tg.forkList = &vlist[S]{}
			m.virtuals[tg.fork] = tg.forkList
			delivery.Forked = append(delivery.Forked, tg.fork)
		}
	}

	// Phase 4a: split every sender dstate that has direct rivals, exactly
	// as COW would: the sending virtual state moves to the fresh dstate
	// together with copies of all non-rival virtual states. Copies of
	// virtual targets attach to the receiving original target; copies of
	// bystander virtual states attach to the same actual state — this is
	// precisely what avoids duplicating bystanders.
	//
	// The copies of one split are counted first and carved out of two
	// allocations — the virtual states and the bucket entries pointing at
	// them — instead of one object per virtual state and one slice per
	// node. Every bucket is a sub-slice capped at its own length, so a
	// later add to it reallocates that bucket alone. The trade: the
	// virtual states of a fresh dstate live and die as one object, so one
	// of them still linked into a super-dstate keeps the whole block.
	for vs := senderList.head; vs != nil; vs = vs.next {
		d := vs.ds
		if !d.rivals {
			continue // virtual delivery in place; nothing to restructure
		}
		fresh := m.newDState()
		d.remove(vs)
		fresh.add(vs)
		total := 0
		for node, bucket := range d.byNode {
			if node != senderNode {
				total += len(bucket)
			}
		}
		copies := make([]vstate[S], total)
		ptrs := make([]*vstate[S], total)
		off := 0
		for node, bucket := range d.byNode {
			if node == senderNode {
				continue // direct rivals stay behind
			}
			n := len(bucket)
			for i, v := range bucket {
				v2 := &copies[off+i]
				v2.actual, v2.ds = v.actual, fresh
				ptrs[off+i] = v2
				v.list.prepend(v2)
			}
			fresh.byNode[node] = ptrs[off : off+n : off+n]
			off += n
		}
		m.dstates = append(m.dstates, fresh)
	}

	// Phase 4b: reassign the non-receiving original virtual states of
	// each forked target to the fork (Figure 7: "vt is only moved to t'
	// without changing vt's dstate"), partitioning each target's list in
	// one pass. The target keeps its vlist object; the unmarked virtual
	// states are prepended back onto it.
	for _, tg := range targets {
		if tg.forkList == nil {
			continue
		}
		list := tg.list
		vt := list.head
		list.head, list.n = nil, 0
		for vt != nil {
			next := vt.next
			if vt.mark == epoch {
				vt.actual = tg.fork
				tg.forkList.prepend(vt)
			} else {
				list.prepend(vt)
			}
			vt = next
		}
	}
	return delivery, nil
}

// sendTarget is one actual target of a send: its super-dstate and, if the
// send forks it, the fork and the fork's super-dstate.
type sendTarget[S StateHandle[S]] struct {
	list     *vlist[S]
	fork     S
	forkList *vlist[S]
}

// ScenarioFor implements Mapper: s plus the first actual state of every
// other node in the dstate of s's first virtual state.
func (m *SDS[S]) ScenarioFor(s S) ([]S, bool) {
	l, ok := m.virtuals[s]
	if !ok || l.head == nil {
		return nil, false
	}
	d := l.head.ds
	out := make([]S, m.k)
	for node := 0; node < m.k; node++ {
		if node == s.NodeID() {
			out[node] = s
		} else {
			out[node] = d.byNode[node][0].actual
		}
	}
	return out, true
}

// NumStates implements Mapper (actual execution states).
func (m *SDS[S]) NumStates() int { return len(m.virtuals) }

// NumVirtualStates returns the number of virtual states, the measure of
// SDS's bookkeeping overhead.
func (m *SDS[S]) NumVirtualStates() int {
	n := 0
	for _, l := range m.virtuals {
		n += l.n
	}
	return n
}

// NumGroups implements Mapper.
func (m *SDS[S]) NumGroups() int { return len(m.dstates) }

// SuperDStateSize returns how many dstates the state belongs to.
func (m *SDS[S]) SuperDStateSize(s S) int {
	if l, ok := m.virtuals[s]; ok {
		return l.n
	}
	return 0
}

// DScenarioCount implements Mapper.
func (m *SDS[S]) DScenarioCount() *big.Int {
	total := new(big.Int)
	one := big.NewInt(1)
	for _, d := range m.dstates {
		n := new(big.Int).Set(one)
		for _, bucket := range d.byNode {
			n.Mul(n, big.NewInt(int64(len(bucket))))
		}
		total.Add(total, n)
	}
	return total
}

// Explode implements Mapper: the per-node cartesian product of every
// dstate, projected to actual states.
func (m *SDS[S]) Explode(limit int) [][]S {
	var out [][]S
	m.ExplodeFunc(limit, func(sc []S) bool {
		out = append(out, sc)
		return true
	})
	return out
}

// ExplodeFunc implements Mapper.
func (m *SDS[S]) ExplodeFunc(limit int, fn func([]S) bool) {
	emitted := 0
	for _, d := range m.dstates {
		// Project the virtual buckets to actual states once per dstate.
		byNode := make([][]S, m.k)
		for node, bucket := range d.byNode {
			actuals := make([]S, len(bucket))
			for i, v := range bucket {
				actuals[i] = v.actual
			}
			byNode[node] = actuals
		}
		if !explodeDState(byNode, limit, &emitted, fn) {
			return
		}
	}
}

// ForEachState implements Mapper; each actual state is visited once, in
// (dstate creation, node, position) order of its first appearance.
func (m *SDS[S]) ForEachState(f func(S)) {
	seen := make(map[S]bool, len(m.virtuals))
	for _, d := range m.dstates {
		for _, bucket := range d.byNode {
			for _, v := range bucket {
				if !seen[v.actual] {
					seen[v.actual] = true
					f(v.actual)
				}
			}
		}
	}
}

// DStateActuals exposes the dstate structure for tests and diagnostics:
// one entry per dstate, holding the actual states behind each node's
// virtual states.
func (m *SDS[S]) DStateActuals() [][][]S {
	out := make([][][]S, 0, len(m.dstates))
	for _, d := range m.dstates {
		ds := make([][]S, m.k)
		for node, bucket := range d.byNode {
			for _, v := range bucket {
				ds[node] = append(ds[node], v.actual)
			}
		}
		out = append(out, ds)
	}
	return out
}

// CheckInvariants implements Mapper: every dstate holds at least one
// virtual state per node; no two virtual states of one dstate share an
// actual state (Figure 8a caption); back-pointers are consistent; every
// actual state has at least one virtual state; and same-node actual
// states within a dstate have identical communication histories.
func (m *SDS[S]) CheckInvariants() error {
	if m.nRegister != m.k {
		return fmt.Errorf("core: SDS: registration incomplete (%d of %d)", m.nRegister, m.k)
	}
	attached := make(map[*vstate[S]]bool)
	for _, d := range m.dstates {
		for node, bucket := range d.byNode {
			if len(bucket) == 0 {
				return fmt.Errorf("core: SDS: dstate %d has no virtual state for node %d", d.id, node)
			}
			actuals := make(map[S]bool, len(bucket))
			for _, v := range bucket {
				if v.actual.NodeID() != node {
					return fmt.Errorf("core: SDS: dstate %d node %d holds virtual of node %d",
						d.id, node, v.actual.NodeID())
				}
				if v.ds != d {
					return fmt.Errorf("core: SDS: virtual state back-pointer stale in dstate %d", d.id)
				}
				if actuals[v.actual] {
					return fmt.Errorf("core: SDS: dstate %d holds two virtuals of state %d",
						d.id, v.actual.ID())
				}
				actuals[v.actual] = true
				attached[v] = true
				found := false
				for u := m.virtuals[v.actual].head; u != nil; u = u.next {
					if u == v {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("core: SDS: virtual of state %d missing from its super-dstate",
						v.actual.ID())
				}
			}
			first := bucket[0].actual
			for _, v := range bucket[1:] {
				if v.actual.HistoryHash() != first.HistoryHash() {
					return fmt.Errorf("core: SDS: dstate %d node %d holds conflicting states %d and %d",
						d.id, node, first.ID(), v.actual.ID())
				}
			}
		}
	}
	total := 0
	for s, l := range m.virtuals {
		if l.head == nil {
			return fmt.Errorf("core: SDS: state %d has no virtual states", s.ID())
		}
		count := 0
		for v := l.head; v != nil; v = v.next {
			count++
			if v.list != l {
				return fmt.Errorf("core: SDS: virtual of state %d points at another super-dstate", s.ID())
			}
			if !attached[v] {
				return fmt.Errorf("core: SDS: dangling virtual state of %d", s.ID())
			}
			if v.actual != s {
				return fmt.Errorf("core: SDS: super-dstate of %d lists foreign virtual", s.ID())
			}
		}
		if count != l.n {
			return fmt.Errorf("core: SDS: state %d list count %d != recorded %d", s.ID(), count, l.n)
		}
		total += count
	}
	if total != len(attached) {
		return fmt.Errorf("core: SDS: %d virtuals attached, %d listed", len(attached), total)
	}
	return nil
}

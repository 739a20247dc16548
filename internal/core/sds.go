package core

import (
	"cmp"
	"fmt"
	"math/big"
	"slices"
)

// vstate is a virtual state (§III-C): a lightweight reference to an actual
// execution state, living in exactly one dstate. An actual state has one
// or more virtual states; the set of dstates reachable through them is the
// state's super-dstate. Virtual states of one actual state form an
// intrusive doubly-linked list — appends during dstate splits are the
// hottest operation of large runs and must not reallocate. list points
// back at that list, which holds the actual state: a send reaches a
// virtual state's super-dstate and actual state without a lookup, and
// hands a whole list to a fork by relabelling the list alone.
type vstate[S StateHandle[S]] struct {
	ds *vDState[S]
	// link[0] points toward the list's end[0], link[1] toward its end[1];
	// pos strictly ascends from end[0] to end[1].
	link [2]*vstate[S]
	list *vlist[S]
	pos  int64
}

// vlist is the super-dstate of one actual state: its virtual states,
// head first from end[head]. Flipping head reverses the list in O(1).
type vlist[S StateHandle[S]] struct {
	actual S
	end    [2]*vstate[S]
	seen   uint64 // == SDS.epoch: already a target of the current send
	n      int32
	// While seen == SDS.epoch: how many of the list's virtual states
	// receive the current send, and the list's index among its targets.
	recv int32
	slot int32
	head uint8
}

// first returns the head of l, nil if l is empty.
func (l *vlist[S]) first() *vstate[S] { return l.end[l.head] }

// next returns the virtual state after v in head-first order.
func (l *vlist[S]) next(v *vstate[S]) *vstate[S] { return v.link[1^l.head] }

// prepend makes v the head of l, one position beyond the old head; every
// list insertion but a fork's receivers goes through here, which keeps
// v.list right.
func (l *vlist[S]) prepend(v *vstate[S]) {
	h := l.head
	old := l.end[h]
	v.list = l
	v.link[h], v.link[1^h] = nil, old
	if old == nil {
		v.pos = 0
		l.end[1^h] = v
	} else {
		old.link[h] = v
		v.pos = old.pos + int64(h)*2 - 1
	}
	l.end[h] = v
	l.n++
}

// push links v at end[1] of l, keeping its position, which must be above
// every position in l.
func (l *vlist[S]) push(v *vstate[S]) {
	v.list = l
	v.link = [2]*vstate[S]{l.end[1], nil}
	if l.end[1] != nil {
		l.end[1].link[1] = v
	} else {
		l.end[0] = v
	}
	l.end[1] = v
	l.n++
}

// unlink takes v out of l; v keeps its position.
func (l *vlist[S]) unlink(v *vstate[S]) {
	for e := range 2 {
		if u := v.link[e]; u != nil {
			u.link[1-e] = v.link[1-e]
		} else {
			l.end[e] = v.link[1-e]
		}
	}
	v.link = [2]*vstate[S]{}
	l.n--
}

// vDState is a dstate over virtual states.
type vDState[S StateHandle[S]] struct {
	id     int
	byNode [][]*vstate[S] // indexed by node id
	// rivals says, for a dstate holding a virtual state of the current
	// sender, whether the sender's node has any other virtual state here.
	// Phase 1 of each send sets it on every sender dstate before use.
	rivals bool
}

// add files v under its actual state's node; v must be on its list.
func (d *vDState[S]) add(v *vstate[S]) {
	v.ds = d
	node := v.list.actual.NodeID()
	d.byNode[node] = append(d.byNode[node], v)
}

// remove takes v out of its node's bucket in place, keeping the order of
// the rest. No other holder views a bucket: a split's copies and a
// restore's entries are sub-slices of one block each, capped at their own
// length, so the shift stays inside the bucket's own slots.
func (d *vDState[S]) remove(v *vstate[S]) bool {
	node := v.list.actual.NodeID()
	if i := slices.Index(d.byNode[node], v); i >= 0 {
		d.byNode[node] = slices.Delete(d.byNode[node], i, i+1)
		return true
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
	virtuals  IDIndex[*vlist[S]] // actual state id -> its super-dstate
	nRegister int
	nextDSID  int
	// epoch numbers the sends; a stamp equal to it was set by the current
	// one. Stamps are transient: snapshots leave them out, and a restored
	// mapper starts at epoch 0 with every stamp 0.
	epoch uint64
	// Per-send scratch, reused across sends: the targets, and the virtual
	// states that receive.
	targets []sendTarget[S]
	recvBuf []*vstate[S]
}

// NewSDS returns an empty SDS mapper for a k-node network.
func NewSDS[S StateHandle[S]](k int) *SDS[S] {
	m := &SDS[S]{k: k}
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
	v := &vstate[S]{}
	l := &vlist[S]{actual: s}
	l.prepend(v)
	d.add(v)
	m.virtuals.Set(s.ID(), l)
	m.nRegister++
}

// OnBranch implements Mapper: the sibling joins every dstate of its
// predecessor — COW's branch rule applied to each virtual state.
func (m *SDS[S]) OnBranch(orig, sibling S) []S {
	origList := m.virtuals.Get(orig.ID())
	if origList == nil {
		panic(fmt.Sprintf("core: SDS.OnBranch of unknown state %d", orig.ID()))
	}
	sibList := &vlist[S]{actual: sibling}
	for vs := origList.first(); vs != nil; vs = origList.next(vs) {
		v2 := &vstate[S]{}
		sibList.prepend(v2)
		vs.ds.add(v2)
	}
	m.virtuals.Set(sibling.ID(), sibList)
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
// The original target receives the packet; its fork does not. A send
// costs time in the sender's virtual states, the receiving virtual states
// and the split copies, not in the length of the targets' super-dstates:
// the fork takes a target's list whole and the target keeps only its
// receivers.
func (m *SDS[S]) MapSend(sender S, dst int) (Delivery[S], error) {
	if err := validateSend[S](m.k, sender, dst); err != nil {
		return Delivery[S]{}, err
	}
	senderList := m.virtuals.Get(sender.ID())
	if senderList == nil {
		return Delivery[S]{}, fmt.Errorf("core: SDS.MapSend of unknown state %d", sender.ID())
	}
	senderNode := sender.NodeID()
	m.epoch++
	epoch := m.epoch

	// Phase 1+2: note whether each sender dstate holds direct rivals —
	// any virtual state of the sender's node besides the sending one,
	// which the bucket always holds — and collect the actual targets with
	// their super-dstates, each once, in first-seen order. A virtual target
	// receives iff its dstate has no rivals: gather those and count them
	// per target.
	var delivery Delivery[S]
	targets := m.targets[:0]
	recv := m.recvBuf[:0]
	for vs := senderList.first(); vs != nil; vs = senderList.next(vs) {
		d := vs.ds
		d.rivals = len(d.byNode[senderNode]) > 1
		for _, vt := range d.byNode[dst] {
			l := vt.list
			if l.seen != epoch {
				l.seen, l.recv, l.slot = epoch, 0, int32(len(targets))
				delivery.Receivers = append(delivery.Receivers, l.actual)
				targets = append(targets, sendTarget[S]{list: l})
			}
			if !d.rivals {
				l.recv++
				recv = append(recv, vt)
			}
		}
	}

	// Phase 3: fork every target with a virtual state that does not
	// receive — one in a dstate without the sender (super-rival case) or
	// in one that will be split (direct-rival case).
	for i := range targets {
		tg := &targets[i]
		if l := tg.list; l.recv < l.n {
			tg.fork = l.actual.Fork()
			tg.kept = &vlist[S]{actual: l.actual, head: 1 ^ l.head}
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
	for vs := senderList.first(); vs != nil; vs = senderList.next(vs) {
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
				v2.ds = fresh
				ptrs[off+i] = v2
				v.list.prepend(v2)
			}
			if node == dst {
				recv = append(recv, ptrs[off:off+n]...) // each of a forked target
			}
			fresh.byNode[node] = ptrs[off : off+n : off+n]
			off += n
		}
		m.dstates = append(m.dstates, fresh)
	}

	// Phase 4b: hand each forked target's non-receiving virtual states to
	// the fork (Figure 7: "vt is only moved to t' without changing vt's
	// dstate"). The fork takes the target's list object with them still
	// in it; the receivers move to a fresh list for the target. Each side
	// keeps the reverse of its order in the target's list (order is
	// behaviour; TestMapperStructureGolden pins it): the fork's list is
	// the remaining chain with its head flipped, the target's its
	// receivers linked in position order under the flipped head. Sorting
	// by position alone orders each target's receivers, whatever the
	// positions of other lists.
	n := 0
	for _, v := range recv {
		if targets[v.list.slot].kept != nil {
			recv[n] = v
			n++
		}
	}
	recv = recv[:n]
	slices.SortFunc(recv, func(a, b *vstate[S]) int { return cmp.Compare(a.pos, b.pos) })
	for _, v := range recv {
		l := v.list
		l.unlink(v)
		targets[l.slot].kept.push(v)
	}
	for _, tg := range targets {
		if tg.kept == nil {
			continue
		}
		l := tg.list
		l.actual, l.head = tg.fork, 1^l.head
		m.virtuals.Set(tg.kept.actual.ID(), tg.kept)
		m.virtuals.Set(tg.fork.ID(), l)
	}
	m.targets, m.recvBuf = targets, recv
	return delivery, nil
}

// sendTarget is one actual target of a send: its super-dstate and, if the
// send forks it, the fork, which takes that list, and the fresh list of
// the target's receiving virtual states.
type sendTarget[S StateHandle[S]] struct {
	list *vlist[S]
	fork S
	kept *vlist[S]
}

// ScenarioFor implements Mapper: s plus the first actual state of every
// other node in the dstate of s's first virtual state.
func (m *SDS[S]) ScenarioFor(s S) ([]S, bool) {
	l := m.virtuals.Get(s.ID())
	if l == nil || l.n == 0 {
		return nil, false
	}
	d := l.first().ds
	out := make([]S, m.k)
	for node := 0; node < m.k; node++ {
		if node == s.NodeID() {
			out[node] = s
		} else {
			out[node] = d.byNode[node][0].list.actual
		}
	}
	return out, true
}

// NumStates implements Mapper (actual execution states).
func (m *SDS[S]) NumStates() int { return m.virtuals.Len() }

// NumVirtualStates returns the number of virtual states, the measure of
// SDS's bookkeeping overhead.
func (m *SDS[S]) NumVirtualStates() int {
	n := 0
	m.virtuals.Each(func(_ uint64, l *vlist[S]) { n += int(l.n) })
	return n
}

// NumGroups implements Mapper.
func (m *SDS[S]) NumGroups() int { return len(m.dstates) }

// SuperDStateSize returns how many dstates the state belongs to.
func (m *SDS[S]) SuperDStateSize(s S) int {
	if l := m.virtuals.Get(s.ID()); l != nil {
		return int(l.n)
	}
	return 0
}

// DScenarioCount implements Mapper.
func (m *SDS[S]) DScenarioCount() *big.Int {
	return scenarioCount(m.dstates, func(d *vDState[S]) [][]*vstate[S] { return d.byNode })
}

// Explode implements Mapper: the per-node cartesian product of every
// dstate, projected to actual states.
func (m *SDS[S]) Explode(limit int) [][]S { return explode(limit, m.ExplodeFunc) }

// ExplodeFunc implements Mapper.
func (m *SDS[S]) ExplodeFunc(limit int, fn func([]S) bool) {
	emitted := 0
	for _, d := range m.dstates {
		// Project the virtual buckets to actual states once per dstate.
		byNode := make([][]S, m.k)
		for node, bucket := range d.byNode {
			actuals := make([]S, len(bucket))
			for i, v := range bucket {
				actuals[i] = v.list.actual
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
	seen := make(map[S]bool, m.virtuals.Len())
	for _, d := range m.dstates {
		for _, bucket := range d.byNode {
			for _, v := range bucket {
				if s := v.list.actual; !seen[s] {
					seen[s] = true
					f(s)
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
				ds[node] = append(ds[node], v.list.actual)
			}
		}
		out = append(out, ds)
	}
	return out
}

// CheckInvariants implements Mapper: every dstate holds at least one
// virtual state per node; no two virtual states of one dstate share an
// actual state (Figure 8a caption); back-pointers are consistent — a
// virtual state's list is its actual state's super-dstate; every list's
// links mirror each other and its positions strictly ascend from end[0]
// to end[1]; every actual state has at least one virtual state; and
// same-node actual states within a dstate have identical communication
// histories.
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
				if v.list == nil || m.virtuals.Get(v.list.actual.ID()) != v.list {
					return fmt.Errorf("core: SDS: virtual state in dstate %d is not on its actual state's super-dstate", d.id)
				}
				s := v.list.actual
				if s.NodeID() != node {
					return fmt.Errorf("core: SDS: dstate %d node %d holds virtual of node %d",
						d.id, node, s.NodeID())
				}
				if v.ds != d {
					return fmt.Errorf("core: SDS: virtual state back-pointer stale in dstate %d", d.id)
				}
				if actuals[s] {
					return fmt.Errorf("core: SDS: dstate %d holds two virtuals of state %d", d.id, s.ID())
				}
				actuals[s] = true
				attached[v] = true
			}
			first := bucket[0].list.actual
			for _, v := range bucket[1:] {
				if s := v.list.actual; s.HistoryHash() != first.HistoryHash() {
					return fmt.Errorf("core: SDS: dstate %d node %d holds conflicting states %d and %d",
						d.id, node, first.ID(), s.ID())
				}
			}
		}
	}
	// Each list is walked from end[0]; the strictly ascending positions
	// also stop a walk that a broken link would send round a cycle.
	total := 0
	var err error
	m.virtuals.Each(func(id uint64, l *vlist[S]) {
		if err == nil {
			var n int
			n, err = checkList(id, l, attached)
			total += n
		}
	})
	if err != nil {
		return err
	}
	if total != len(attached) {
		return fmt.Errorf("core: SDS: %d virtuals attached, %d listed", len(attached), total)
	}
	return nil
}

// checkList checks the super-dstate l listed under state id: it belongs to
// that state, holds at least one virtual state, its links mirror each other,
// its positions strictly ascend from end[0] and every virtual state on it
// is attached to a dstate. It returns the list's length.
func checkList[S StateHandle[S]](id uint64, l *vlist[S], attached map[*vstate[S]]bool) (int, error) {
	if l.actual.ID() != id {
		return 0, fmt.Errorf("core: SDS: super-dstate of state %d belongs to state %d", id, l.actual.ID())
	}
	if l.n == 0 {
		return 0, fmt.Errorf("core: SDS: state %d has no virtual states", id)
	}
	count := 0
	var prev *vstate[S]
	for v := l.end[0]; v != nil; prev, v = v, v.link[1] {
		if v.link[0] != prev {
			return 0, fmt.Errorf("core: SDS: super-dstate of state %d has links that do not mirror", id)
		}
		if prev != nil && v.pos <= prev.pos {
			return 0, fmt.Errorf("core: SDS: super-dstate of state %d has position %d after %d",
				id, v.pos, prev.pos)
		}
		if v.list != l {
			return 0, fmt.Errorf("core: SDS: virtual of state %d points at another super-dstate", id)
		}
		if !attached[v] {
			return 0, fmt.Errorf("core: SDS: dangling virtual state of %d", id)
		}
		count++
	}
	if prev != l.end[1] {
		return 0, fmt.Errorf("core: SDS: super-dstate of state %d does not end at its end[1]", id)
	}
	if count != int(l.n) {
		return 0, fmt.Errorf("core: SDS: state %d list count %d != recorded %d", id, count, l.n)
	}
	return count, nil
}

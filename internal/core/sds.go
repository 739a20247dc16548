package core

import (
	"cmp"
	"fmt"
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
	ds *dstate[*vstate[S]]
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

// actualOf is SDS's projection of an entry, a virtual state, to its
// actual state.
func actualOf[S StateHandle[S]](v *vstate[S]) S { return v.list.actual }

// SDS implements the Super DStates mapping algorithm (§III-C):
// conceptually COW executed on virtual states, so that a bystander's
// virtual state is forked while the actual bystander state is executed
// only once. Only target states are ever forked — at most once per
// transmission — which yields the algorithm's non-duplication property
// (§III-D).
type SDS[S StateHandle[S]] struct {
	dtable[S, *vstate[S]]
	virtuals IDIndex[*vlist[S]] // actual state id -> its super-dstate
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
	m := &SDS[S]{dtable: dtable[S, *vstate[S]]{k: k, actual: actualOf[S]}}
	m.push()
	return m
}

// Algorithm implements Mapper.
func (m *SDS[S]) Algorithm() Algorithm { return SDSAlgorithm }

// Register implements Mapper.
func (m *SDS[S]) Register(s S) {
	v := &vstate[S]{}
	l := &vlist[S]{actual: s}
	l.prepend(v)
	v.ds = m.register(s, v)
	m.virtuals.Set(s.ID(), l)
}

// OnBranch implements Mapper: the sibling joins every dstate of its
// predecessor — COW's branch rule applied to each virtual state.
func (m *SDS[S]) OnBranch(orig, sibling S) []S {
	origList := m.virtuals.Get(orig.ID())
	if origList == nil {
		panic(fmt.Sprintf("core: SDS.OnBranch of unknown state %d", orig.ID()))
	}
	sibList := &vlist[S]{actual: sibling}
	node := sibling.NodeID()
	for vs := origList.first(); vs != nil; vs = origList.next(vs) {
		v2 := &vstate[S]{ds: vs.ds}
		sibList.prepend(v2)
		vs.ds.add(node, v2)
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

	// Phase 1+2: a sender dstate holds direct rivals iff its bucket of the
	// sender's node holds more than the sending virtual state. Collect the
	// actual targets with their super-dstates, each once, in first-seen
	// order. A virtual target receives iff its dstate has no rivals: gather
	// those and count them per target.
	var delivery Delivery[S]
	targets := m.targets[:0]
	recv := m.recvBuf[:0]
	for vs := senderList.first(); vs != nil; vs = senderList.next(vs) {
		d := vs.ds
		rivals := len(d.byNode[senderNode]) > 1
		for _, vt := range d.byNode[dst] {
			l := vt.list
			if l.seen != epoch {
				l.seen, l.recv, l.slot = epoch, 0, int32(len(targets))
				delivery.Receivers = append(delivery.Receivers, l.actual)
				targets = append(targets, sendTarget[S]{list: l})
			}
			if !rivals {
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
	// as COW does: the sending virtual state moves to the fresh dstate
	// together with copies of all non-rival virtual states. Copies of
	// virtual targets attach to the receiving original target; copies of
	// bystander virtual states attach to the same actual state — this is
	// precisely what avoids duplicating bystanders. A split changes no
	// other sender dstate's buckets, so its rivals read as in phase 1.
	//
	// The copies of one split are one allocation, beside the block the
	// split carves the fresh buckets from, instead of one object per
	// virtual state. The trade: the virtual states of a fresh dstate live
	// and die as one object, so one of them still linked into a
	// super-dstate keeps the whole block.
	for vs := senderList.first(); vs != nil; vs = senderList.next(vs) {
		d := vs.ds
		if len(d.byNode[senderNode]) == 1 {
			continue // virtual delivery in place; nothing to restructure
		}
		fresh, total := m.split(d, senderNode, vs)
		vs.ds = fresh
		copies := make([]vstate[S], total)
		for node, bucket := range d.byNode {
			if node == senderNode {
				continue // direct rivals stay behind
			}
			ptrs := fresh.byNode[node]
			for i, v := range bucket {
				v2 := &copies[i]
				v2.ds = fresh
				ptrs[i] = v2
				v.list.prepend(v2)
			}
			if node == dst {
				recv = append(recv, ptrs...) // each of a forked target
			}
			copies = copies[len(bucket):]
		}
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
	return m.scenarioFor(l.first().ds, s), true
}

// NumStates implements Mapper (actual execution states).
func (m *SDS[S]) NumStates() int { return m.virtuals.Len() }

// SuperDStateSize returns how many dstates the state belongs to.
func (m *SDS[S]) SuperDStateSize(s S) int {
	if l := m.virtuals.Get(s.ID()); l != nil {
		return int(l.n)
	}
	return 0
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

// CheckInvariants implements Mapper: the bucket invariants of every
// dstate; no two virtual states of one dstate share an actual state
// (Figure 8a caption); back-pointers are consistent — a virtual state's
// dstate is the one it is filed in and its list is its actual state's
// super-dstate; every list's links mirror each other and its positions
// strictly ascend from end[0] to end[1]; and every actual state has at
// least one virtual state.
func (m *SDS[S]) CheckInvariants() error {
	attached := make(map[*vstate[S]]bool)
	last := make(map[S]*dstate[*vstate[S]]) // the last dstate a state was met in
	err := m.checkBuckets("SDS", func(d *dstate[*vstate[S]], v *vstate[S]) error {
		if v.list == nil || m.virtuals.Get(v.list.actual.ID()) != v.list {
			return fmt.Errorf("core: SDS: virtual state in dstate %d is not on its actual state's super-dstate", d.id)
		}
		if v.ds != d {
			return fmt.Errorf("core: SDS: virtual state back-pointer stale in dstate %d", d.id)
		}
		s := v.list.actual
		if last[s] == d {
			return fmt.Errorf("core: SDS: dstate %d holds two virtuals of state %d", d.id, s.ID())
		}
		last[s] = d
		attached[v] = true
		return nil
	})
	if err != nil {
		return err
	}
	// Each list is walked from end[0]; the strictly ascending positions
	// also stop a walk that a broken link would send round a cycle. A
	// listed virtual state is struck off the attached ones.
	m.virtuals.Each(func(id uint64, l *vlist[S]) {
		if err == nil {
			err = checkList(id, l, attached)
		}
	})
	if err == nil && len(attached) != 0 {
		err = fmt.Errorf("core: SDS: %d attached virtual states are on no super-dstate", len(attached))
	}
	return err
}

// checkList checks the super-dstate l listed under state id: it belongs to
// that state, holds at least one virtual state, its links mirror each other,
// its positions strictly ascend from end[0] and every virtual state on it
// is attached to a dstate, which it strikes off attached.
func checkList[S StateHandle[S]](id uint64, l *vlist[S], attached map[*vstate[S]]bool) error {
	if l.actual.ID() != id {
		return fmt.Errorf("core: SDS: super-dstate of state %d belongs to state %d", id, l.actual.ID())
	}
	if l.n == 0 {
		return fmt.Errorf("core: SDS: state %d has no virtual states", id)
	}
	count := 0
	var prev *vstate[S]
	for v := l.end[0]; v != nil; prev, v = v, v.link[1] {
		if v.link[0] != prev {
			return fmt.Errorf("core: SDS: super-dstate of state %d has links that do not mirror", id)
		}
		if prev != nil && v.pos <= prev.pos {
			return fmt.Errorf("core: SDS: super-dstate of state %d has position %d after %d",
				id, v.pos, prev.pos)
		}
		if v.list != l {
			return fmt.Errorf("core: SDS: virtual of state %d points at another super-dstate", id)
		}
		if !attached[v] {
			return fmt.Errorf("core: SDS: dangling virtual state of %d", id)
		}
		delete(attached, v)
		count++
	}
	if prev != l.end[1] {
		return fmt.Errorf("core: SDS: super-dstate of state %d does not end at its end[1]", id)
	}
	if count != int(l.n) {
		return fmt.Errorf("core: SDS: state %d list count %d != recorded %d", id, count, l.n)
	}
	return nil
}

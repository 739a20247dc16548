package core

import (
	"math/big"
	"strings"
	"testing"
	"unsafe"
)

// TestSDSBranchJoinsAllDStates: after a branch, the sibling must appear in
// every dstate of its predecessor.
func TestSDSBranchJoinsAllDStates(t *testing.T) {
	net := newMockNet(3)
	m := NewSDS[*mockState](3)
	register(t, m, net)
	sib, extra := doBranch(m, net[0])
	if len(extra) != 0 {
		t.Fatalf("SDS branch forked %d states, want 0", len(extra))
	}
	if m.SuperDStateSize(sib) != 1 {
		t.Errorf("sibling super-dstate size = %d, want 1", m.SuperDStateSize(sib))
	}
	if m.NumGroups() != 1 || m.NumStates() != 4 {
		t.Errorf("groups=%d states=%d, want 1, 4", m.NumGroups(), m.NumStates())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestSDSNoRivalDeliversInPlace: a sender alone on its node delivers to
// the original targets with no forking at all.
func TestSDSNoRivalDeliversInPlace(t *testing.T) {
	net := newMockNet(3)
	m := NewSDS[*mockState](3)
	register(t, m, net)
	del, err := doSend(m, net[0], 1, 5)
	if err != nil {
		t.Fatalf("MapSend: %v", err)
	}
	if len(del.Forked) != 0 || len(del.Receivers) != 1 || del.Receivers[0] != net[1] {
		t.Errorf("delivery = %+v, want in-place to original", del)
	}
	if m.NumGroups() != 1 || m.NumStates() != 3 {
		t.Errorf("groups=%d states=%d, want 1, 3", m.NumGroups(), m.NumStates())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestSDSBystandersNeverForked is the algorithm's core claim (Figure 6):
// resolving a conflict forks only the target, never the bystanders.
func TestSDSBystandersNeverForked(t *testing.T) {
	const k = 6
	net := newMockNet(k)
	m := NewSDS[*mockState](k)
	register(t, m, net)
	doBranch(m, net[0]) // sender gains one rival

	del, err := doSend(m, net[0], 1, 77)
	if err != nil {
		t.Fatalf("MapSend: %v", err)
	}
	if len(del.Forked) != 1 {
		t.Fatalf("forked = %d states, want 1 (the target only)", len(del.Forked))
	}
	if del.Forked[0].node != 1 {
		t.Errorf("forked node = %d, want 1", del.Forked[0].node)
	}
	if len(del.Receivers) != 1 || del.Receivers[0] != net[1] {
		t.Errorf("receiver = %v, want the original target", del.Receivers)
	}
	// 6 initial + 1 branch sibling + 1 target fork.
	if m.NumStates() != k+2 {
		t.Errorf("states = %d, want %d", m.NumStates(), k+2)
	}
	if m.NumGroups() != 2 {
		t.Errorf("dstates = %d, want 2", m.NumGroups())
	}
	// The bystanders now belong to both dstates.
	for n := 2; n < k; n++ {
		if got := m.SuperDStateSize(net[n]); got != 2 {
			t.Errorf("bystander node %d super-dstate size = %d, want 2", n, got)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// No duplicates — compare with COW which would have created k-2.
	if d := duplicateGroups(m); d != 0 {
		t.Errorf("duplicate groups = %d, want 0", d)
	}
}

// TestSDSFigure7 reproduces paper Figure 7: a sender without direct
// rivals whose target has a super-rival. The target is forked and its
// virtual state in the foreign dstate is moved to the fork; no dstate is
// split.
func TestSDSFigure7(t *testing.T) {
	net := newMockNet(4)
	m := NewSDS[*mockState](4)
	register(t, m, net)

	// Build two dstates: branch node 0, then let the original send once,
	// splitting the initial dstate.
	doBranch(m, net[0])
	if _, err := doSend(m, net[0], 1, 1); err != nil {
		t.Fatal(err)
	}
	if m.NumGroups() != 2 {
		t.Fatalf("setup: dstates = %d, want 2", m.NumGroups())
	}
	// Now net[0] is alone on node 0 in its dstate (no direct rival), and
	// node 2's state sits in both dstates; the other dstate's node-0
	// population (the branch sibling) is a super-rival.
	if m.SuperDStateSize(net[2]) != 2 {
		t.Fatalf("setup: node-2 state should span 2 dstates")
	}
	statesBefore := m.NumStates()
	groupsBefore := m.NumGroups()

	del, err := doSend(m, net[0], 2, 2)
	if err != nil {
		t.Fatalf("MapSend: %v", err)
	}
	if len(del.Forked) != 1 {
		t.Fatalf("forked = %d, want 1 (the target)", len(del.Forked))
	}
	fork := del.Forked[0]
	if fork.node != 2 {
		t.Errorf("fork node = %d, want 2", fork.node)
	}
	if m.NumGroups() != groupsBefore {
		t.Errorf("dstates = %d, want unchanged %d (no direct rivals => no split)",
			m.NumGroups(), groupsBefore)
	}
	if m.NumStates() != statesBefore+1 {
		t.Errorf("states = %d, want %d", m.NumStates(), statesBefore+1)
	}
	// The original target now lives only in the sender's dstate; the fork
	// holds the virtual state of the foreign dstate.
	if m.SuperDStateSize(net[2]) != 1 || m.SuperDStateSize(fork) != 1 {
		t.Errorf("super-dstate sizes: target %d, fork %d; want 1, 1",
			m.SuperDStateSize(net[2]), m.SuperDStateSize(fork))
	}
	// Verify membership via the structure dump: the fork must share a
	// dstate with the branch sibling (the super-rival side).
	foundForkWithSibling := false
	for _, d := range m.dstates {
		has := map[*mockState]bool{}
		for _, bucket := range d.byNode {
			for _, v := range bucket {
				has[v.list.actual] = true
			}
		}
		if has[fork] && !has[net[0]] {
			foundForkWithSibling = true
		}
		if has[fork] && has[net[2]] {
			t.Error("fork and original target share a dstate")
		}
	}
	if !foundForkWithSibling {
		t.Error("fork did not take over the foreign dstate membership")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if d := duplicateGroups(m); d != 0 {
		t.Errorf("duplicate groups = %d, want 0", d)
	}
}

// buildFigure8 constructs the exact input of paper Figure 8(a) by hand
// (white-box): four nodes, three dstates, a sender with virtual states in
// dstates 0 and 1, direct rivals in both, three super-rivals in dstate 2,
// and one target (B5) whose virtual states span dstates 1 and 2.
func buildFigure8() (m *SDS[*mockState], sender *mockState, actual map[string]*mockState) {
	alloc := &mockAlloc{}
	mk := func(node int) *mockState {
		return &mockState{id: alloc.newID(), node: node, alloc: alloc, cfg: alloc.next * 1000}
	}
	actual = map[string]*mockState{}
	for _, name := range []string{"A1", "A2", "A3", "A4", "A5", "A6"} {
		actual[name] = mk(0)
	}
	for _, name := range []string{"B1", "B2", "B3", "B4", "B5"} {
		actual[name] = mk(1)
	}
	for _, name := range []string{"C1", "C2", "C3"} {
		actual[name] = mk(2)
	}
	for _, name := range []string{"D1", "D2", "D3"} {
		actual[name] = mk(3)
	}
	m = &SDS[*mockState]{dtable: dtable[*mockState, *vstate[*mockState]]{k: 4, nRegister: 4, actual: actualOf[*mockState]}}
	addDS := func(names ...string) {
		d := m.push()
		for _, n := range names {
			s := actual[n]
			v := &vstate[*mockState]{ds: d}
			if m.virtuals.Get(s.ID()) == nil {
				m.virtuals.Set(s.ID(), &vlist[*mockState]{actual: s})
			}
			m.virtuals.Get(s.ID()).prepend(v)
			d.add(s.NodeID(), v)
		}
	}
	// dstate 0: sender A1 + direct rival A2; three targets; bystanders.
	addDS("A1", "A2", "B1", "B2", "B3", "C1", "D1")
	// dstate 1: sender A1 + direct rival A3; two targets (B4, B5).
	addDS("A1", "A3", "B4", "B5", "C2", "D2")
	// dstate 2: three super-rivals; B5's second virtual state; bystanders.
	addDS("A4", "A5", "A6", "B5", "C3", "D3")
	return m, actual["A1"], actual
}

// TestSDSFigure8 replays the paper's Figure 8(a) -> 8(b) conflict
// resolution: both sender dstates split (3 dstates become 5), every
// target is forked exactly once, and no bystander or rival is forked.
func TestSDSFigure8(t *testing.T) {
	m, sender, actual := buildFigure8()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("hand-built Figure 8(a) is invalid: %v", err)
	}
	if got := m.NumStates(); got != 17 {
		t.Fatalf("setup states = %d, want 17", got)
	}
	if got := m.SuperDStateSize(sender); got != 2 {
		t.Fatalf("sender virtual states = %d, want 2", got)
	}

	del, err := m.MapSend(sender, 1)
	if err != nil {
		t.Fatalf("MapSend: %v", err)
	}
	deliverMock(sender, del.Receivers, 42)

	// All five targets receive; all five are forked exactly once.
	if len(del.Receivers) != 5 {
		t.Errorf("receivers = %d, want 5", len(del.Receivers))
	}
	if len(del.Forked) != 5 {
		t.Errorf("forked = %d, want 5", len(del.Forked))
	}
	forkCount := map[*mockState]int{}
	for _, f := range del.Forked {
		if f.node != 1 {
			t.Errorf("non-target state of node %d was forked", f.node)
		}
		forkCount[f]++
	}
	for f, c := range forkCount {
		if c != 1 {
			t.Errorf("state %d forked %d times", f.ID(), c)
		}
	}
	// Figure 8(b): five dstates.
	if m.NumGroups() != 5 {
		t.Errorf("dstates = %d, want 5", m.NumGroups())
	}
	// 17 original + 5 forks.
	if m.NumStates() != 22 {
		t.Errorf("states = %d, want 22", m.NumStates())
	}
	// "Note how no bystander has been forked (only their virtual states
	// are forked)": C1/C2, D1/D2 gained a virtual state each.
	for _, name := range []string{"C1", "C2", "D1", "D2"} {
		if got := m.SuperDStateSize(actual[name]); got != 2 {
			t.Errorf("bystander %s super-dstate size = %d, want 2", name, got)
		}
	}
	// dstate-2 bystanders are untouched.
	for _, name := range []string{"C3", "D3"} {
		if got := m.SuperDStateSize(actual[name]); got != 1 {
			t.Errorf("bystander %s super-dstate size = %d, want 1", name, got)
		}
	}
	// B5's foreign (dstate 2) virtual state must now belong to B5's fork:
	// the fork shares a dstate with the super-rivals A4..A6.
	var b5Fork *mockState
	for _, f := range del.Forked {
		for _, d := range m.dstates {
			has := map[*mockState]bool{}
			for _, bucket := range d.byNode {
				for _, v := range bucket {
					has[v.list.actual] = true
				}
			}
			if has[f] && has[actual["A4"]] {
				b5Fork = f
			}
		}
	}
	if b5Fork == nil {
		t.Error("no fork took over B5's membership in the super-rival dstate")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// §III-D non-duplication: the mapping created no duplicate states.
	if d := duplicateGroups(m); d != 0 {
		t.Errorf("duplicate groups = %d, want 0", d)
	}
}

func TestSDSMultipleSendsProgressive(t *testing.T) {
	// A line of 4 nodes; node 0 branches, sends to 1; node 1 forwards to
	// 2; node 2 forwards to 3. Invariants and non-duplication must hold
	// throughout, and dscenario counts must stay consistent.
	net := newMockNet(4)
	m := NewSDS[*mockState](4)
	register(t, m, net)
	doBranch(m, net[0])

	if _, err := doSend(m, net[0], 1, 1); err != nil {
		t.Fatal(err)
	}
	checkStep(t, m)
	if _, err := doSend(m, net[1], 2, 2); err != nil {
		t.Fatal(err)
	}
	checkStep(t, m)
	if _, err := doSend(m, net[2], 3, 3); err != nil {
		t.Fatal(err)
	}
	checkStep(t, m)
}

func checkStep(t *testing.T, m Mapper[*mockState]) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if d := duplicateGroups(m); d != 0 {
		t.Fatalf("SDS produced %d duplicate groups", d)
	}
}

func TestSDSDScenarioCountMatchesExplode(t *testing.T) {
	net := newMockNet(3)
	m := NewSDS[*mockState](3)
	register(t, m, net)
	doBranch(m, net[0])
	doBranch(m, net[1])
	if _, err := doSend(m, net[0], 1, 9); err != nil {
		t.Fatal(err)
	}
	want := m.DScenarioCount()
	got := big.NewInt(int64(len(m.Explode(0))))
	if want.Cmp(got) != 0 {
		t.Errorf("DScenarioCount = %v, Explode yields %v", want, got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSDSForEachStateVisitsOnce(t *testing.T) {
	net := newMockNet(4)
	m := NewSDS[*mockState](4)
	register(t, m, net)
	doBranch(m, net[0])
	if _, err := doSend(m, net[0], 1, 1); err != nil {
		t.Fatal(err)
	}
	// Bystanders now span two dstates; they must still be visited once.
	counts := map[*mockState]int{}
	m.ForEachState(func(s *mockState) { counts[s]++ })
	for s, c := range counts {
		if c != 1 {
			t.Errorf("state %d visited %d times", s.ID(), c)
		}
	}
	if len(counts) != m.NumStates() {
		t.Errorf("visited %d states, NumStates = %d", len(counts), m.NumStates())
	}
}

// TestSDSInvariantsCatchBrokenLists: CheckInvariants reports a super-dstate
// whose links do not mirror each other and one whose positions do not
// ascend, and passes again once each is repaired.
func TestSDSInvariantsCatchBrokenLists(t *testing.T) {
	mm, _ := wideNet(t, 2)
	m := mm.(*SDS[*mockState])
	var l *vlist[*mockState]
	m.virtuals.Each(func(_ uint64, cand *vlist[*mockState]) {
		if cand.n >= 3 {
			l = cand
		}
	})
	if l == nil {
		t.Fatal("no super-dstate with three virtual states")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("before any damage: %v", err)
	}
	mid := l.end[0].link[1]

	saved := mid.link[0]
	mid.link[0] = nil
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "links that do not mirror") {
		t.Errorf("a broken link reported as %v", err)
	}
	mid.link[0] = saved

	after := mid.link[1]
	mid.pos, after.pos = after.pos, mid.pos
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "position") {
		t.Errorf("an out-of-order position reported as %v", err)
	}
	mid.pos, after.pos = after.pos, mid.pos

	if err := m.CheckInvariants(); err != nil {
		t.Errorf("after repair: %v", err)
	}
}

// TestVirtualStateSizes guards the size of SDS's per-virtual-state and
// per-state records, of which a paper-scale run holds millions: a virtual
// state is its dstate, two links, its list and a position; a list fits
// its actual state, two ends, the send stamps and narrow counters.
func TestVirtualStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(vstate[*mockState]{}); got > 40 {
		t.Errorf("a virtual state takes %d bytes, want at most 40", got)
	}
	if got := unsafe.Sizeof(vlist[*mockState]{}); got > 64 {
		t.Errorf("a super-dstate list takes %d bytes, want at most 64", got)
	}
}

// TestSplitRemovalAllocs: a split takes its sender out of its bucket in
// place, keeping the order of the rest, so the removal allocates nothing —
// filing the state back reuses the freed slot. A fresh copy of the rest of
// the bucket per split made n successive splits of one bucket O(n²). The
// dstate type is the same for both entry types; it is checked with each.
func TestSplitRemovalAllocs(t *testing.T) {
	const n = 64
	net := newMockNet(1)
	states := []*mockState{net[0]}
	for len(states) < n {
		states = append(states, net[0].Fork())
	}
	cow := &dstate[*mockState]{byNode: make([][]*mockState, 1)}
	sds := &dstate[*vstate[*mockState]]{byNode: make([][]*vstate[*mockState], 1)}
	virtuals := make([]*vstate[*mockState], n)
	for i, s := range states {
		cow.add(0, s)
		virtuals[i] = &vstate[*mockState]{list: &vlist[*mockState]{actual: s}}
		sds.add(0, virtuals[i])
	}
	if a := testing.AllocsPerRun(100, func() {
		cow.remove(0, states[n/2])
		cow.add(0, states[n/2])
		sds.remove(0, virtuals[n/2])
		sds.add(0, virtuals[n/2])
	}); a != 0 {
		t.Errorf("a split's removal allocates %v times", a)
	}
	// The loop moved the middle state to the end; take out another and the
	// rest keeps its order.
	want := append(append(append([]*mockState(nil), states[:10]...), states[11:n/2]...), states[n/2+1:]...)
	want = append(want, states[n/2])
	if !cow.remove(0, states[10]) || !sds.remove(0, virtuals[10]) {
		t.Fatal("remove missed a state in its bucket")
	}
	for i, s := range want {
		if cow.byNode[0][i] != s || sds.byNode[0][i].list.actual != s {
			t.Fatalf("bucket entry %d is state %d, want %d", i, cow.byNode[0][i].ID(), s.ID())
		}
	}
	if len(cow.byNode[0]) != n-1 || len(sds.byNode[0]) != n-1 {
		t.Fatalf("buckets of %d and %d after a removal, want %d", len(cow.byNode[0]), len(sds.byNode[0]), n-1)
	}
}

// TestDScenarioCountPastUint64: the count stays exact where a dstate's
// product passes 2^64 and where a sum of products that fit carries past it
// — both mappers agree with a big.Int reference on every prefix of a list
// of dstates that holds both cases.
func TestDScenarioCountPastUint64(t *testing.T) {
	const k = 80
	sizes := func(counts ...int) []int { // pairs of (nodes, bucket size)
		out := make([]int, 0, k)
		for i := 0; i < len(counts); i += 2 {
			for range counts[i] {
				out = append(out, counts[i+1])
			}
		}
		for len(out) < k {
			out = append(out, 1)
		}
		return out
	}
	dstates := [][]int{
		sizes(k, 1),
		sizes(40, 3),          // 3^40 < 2^64
		sizes(40, 3),          // a second one: the sum carries
		sizes(70, 2),          // 2^70: the product overflows
		sizes(70, 2, 1, 0),    // 0 after the product left uint64
		sizes(63, 2, 1, 5),    // 5·2^63 overflows at the last node
		sizes(1, 7, 60, 2),    // fits again
		sizes(64, 2, 16, 255), // overflows by far
	}
	cow := &COW[*mockState]{dtable: dtable[*mockState, *mockState]{k: k}}
	sds := &SDS[*mockState]{dtable: dtable[*mockState, *vstate[*mockState]]{k: k}}
	want := new(big.Int)
	for i, row := range dstates {
		d, vd := cow.push(), sds.push()
		p := big.NewInt(1)
		for node, n := range row {
			d.byNode[node] = make([]*mockState, n)
			vd.byNode[node] = make([]*vstate[*mockState], n)
			p.Mul(p, big.NewInt(int64(n)))
		}
		want.Add(want, p)
		if got := cow.DScenarioCount(); got.Cmp(want) != 0 {
			t.Errorf("COW, %d dstates: %v dscenarios, want %v", i+1, got, want)
		}
		if got := sds.DScenarioCount(); got.Cmp(want) != 0 {
			t.Errorf("SDS, %d dstates: %v dscenarios, want %v", i+1, got, want)
		}
	}
	if want.BitLen() <= 64 {
		t.Fatalf("the total %v fits a uint64; the test wants one past it", want)
	}
}

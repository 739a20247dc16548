package core

import (
	"math/big"
	"runtime"
	"testing"
)

func register(t *testing.T, m Mapper[*mockState], states []*mockState) {
	t.Helper()
	for _, s := range states {
		m.Register(s)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after registration: %v", err)
	}
}

// TestCOBFigure3 reproduces paper Figure 3: a symbolic branch of node 1 in
// a 3-node network forks the states of nodes 2 and 3, creating two
// separate dscenarios "although there is no transmission whatsoever".
func TestCOBFigure3(t *testing.T) {
	net := newMockNet(3)
	m := NewCOB[*mockState](3)
	register(t, m, net)

	_, extra := doBranch(m, net[0])
	if len(extra) != 2 {
		t.Fatalf("COB branch forked %d states, want 2 (nodes 2 and 3)", len(extra))
	}
	if extra[0].node != 1 || extra[1].node != 2 {
		t.Errorf("forked nodes = %d,%d, want 1,2", extra[0].node, extra[1].node)
	}
	if m.NumGroups() != 2 {
		t.Errorf("dscenarios = %d, want 2", m.NumGroups())
	}
	if m.NumStates() != 6 {
		t.Errorf("states = %d, want 6 (two full dscenarios)", m.NumStates())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// The forked copies are pure duplicates of their originals.
	if d := duplicateGroups(m); d != 2 {
		t.Errorf("duplicate groups = %d, want 2", d)
	}
}

func TestCOBMapSendIsLookup(t *testing.T) {
	net := newMockNet(3)
	m := NewCOB[*mockState](3)
	register(t, m, net)
	sib, _ := doBranch(m, net[0])

	del, err := doSend(m, net[0], 1, 100)
	if err != nil {
		t.Fatalf("MapSend: %v", err)
	}
	if len(del.Forked) != 0 {
		t.Errorf("COB send forked %d states, want 0", len(del.Forked))
	}
	if len(del.Receivers) != 1 {
		t.Fatalf("receivers = %d, want 1", len(del.Receivers))
	}
	// The receiver must be the node-1 state of the sender's dscenario,
	// which still holds the original states.
	if del.Receivers[0] != net[1] {
		t.Errorf("receiver = state %d, want original %d", del.Receivers[0].ID(), net[1].ID())
	}
	// A send from the sibling's dscenario reaches the copy instead.
	del2, err := m.MapSend(sib, 1)
	if err != nil {
		t.Fatalf("MapSend: %v", err)
	}
	if del2.Receivers[0] == net[1] {
		t.Error("sibling's dscenario delivered to the original state")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCOBSendValidation(t *testing.T) {
	net := newMockNet(2)
	m := NewCOB[*mockState](2)
	register(t, m, net)
	if _, err := m.MapSend(net[0], 0); err == nil {
		t.Error("self-send accepted")
	}
	if _, err := m.MapSend(net[0], 5); err == nil {
		t.Error("out-of-range destination accepted")
	}
	stranger := &mockState{id: 999, node: 1, alloc: &mockAlloc{next: 1000}}
	if _, err := m.MapSend(stranger, 0); err == nil {
		t.Error("unregistered sender accepted")
	}
}

func TestCOBChainedBranches(t *testing.T) {
	net := newMockNet(4)
	m := NewCOB[*mockState](4)
	register(t, m, net)
	// Each branch doubles nothing — it adds one dscenario per branch of
	// one state. Branch the same node's lineage three times.
	s := net[0]
	for i := 0; i < 3; i++ {
		sib, extra := doBranch(m, s)
		if len(extra) != 3 {
			t.Fatalf("branch %d forked %d, want 3", i, len(extra))
		}
		s = sib
	}
	if m.NumGroups() != 4 {
		t.Errorf("dscenarios = %d, want 4", m.NumGroups())
	}
	if m.NumStates() != 16 {
		t.Errorf("states = %d, want 16", m.NumStates())
	}
	if got := m.DScenarioCount(); got.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("DScenarioCount = %v, want 4", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCOWFigure4 reproduces paper Figure 4: after a symbolic branch on
// node 1, a transmission from one of node 1's states to node 2 forks the
// states of nodes 2 and 3 into a fresh dstate, and the packet is delivered
// there.
func TestCOWFigure4(t *testing.T) {
	net := newMockNet(3)
	m := NewCOW[*mockState](3)
	register(t, m, net)

	// The branch costs nothing: same dstate, one more state.
	_, extra := doBranch(m, net[0])
	if len(extra) != 0 {
		t.Fatalf("COW branch forked %d states, want 0", len(extra))
	}
	if m.NumGroups() != 1 || m.NumStates() != 4 {
		t.Fatalf("after branch: %d dstates, %d states; want 1, 4",
			m.NumGroups(), m.NumStates())
	}

	// The send has one rival (the sibling), so the dstate splits.
	del, err := doSend(m, net[0], 1, 100)
	if err != nil {
		t.Fatalf("MapSend: %v", err)
	}
	if len(del.Forked) != 2 {
		t.Errorf("send forked %d states, want 2 (target + bystander)", len(del.Forked))
	}
	if len(del.Receivers) != 1 {
		t.Fatalf("receivers = %d, want 1", len(del.Receivers))
	}
	if del.Receivers[0] == net[1] {
		t.Error("COW delivered to the original target; must deliver to the copy")
	}
	if m.NumGroups() != 2 {
		t.Errorf("dstates = %d, want 2", m.NumGroups())
	}
	if m.NumStates() != 6 {
		t.Errorf("states = %d, want 6", m.NumStates())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// The bystander copy is a duplicate; the target copy is not (it
	// received the packet).
	if d := duplicateGroups(m); d != 1 {
		t.Errorf("duplicate groups = %d, want 1 (bystander only)", d)
	}
}

func TestCOWNoRivalDeliversInPlace(t *testing.T) {
	net := newMockNet(3)
	m := NewCOW[*mockState](3)
	register(t, m, net)
	del, err := doSend(m, net[0], 2, 7)
	if err != nil {
		t.Fatalf("MapSend: %v", err)
	}
	if len(del.Forked) != 0 {
		t.Errorf("rival-free send forked %d states", len(del.Forked))
	}
	if len(del.Receivers) != 1 || del.Receivers[0] != net[2] {
		t.Errorf("receivers = %v, want the original node-2 state", del.Receivers)
	}
	if m.NumGroups() != 1 {
		t.Errorf("dstates = %d, want 1", m.NumGroups())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCOWMultiTargetDelivery(t *testing.T) {
	// Two states on the destination node, no rivals for the sender: both
	// targets receive in place.
	net := newMockNet(3)
	m := NewCOW[*mockState](3)
	register(t, m, net)
	doBranch(m, net[1]) // two states on node 1 now
	del, err := doSend(m, net[0], 1, 3)
	if err != nil {
		t.Fatalf("MapSend: %v", err)
	}
	if len(del.Receivers) != 2 {
		t.Errorf("receivers = %d, want 2", len(del.Receivers))
	}
	if len(del.Forked) != 0 {
		t.Errorf("forked = %d, want 0", len(del.Forked))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestClassificationFigure5 reproduces paper Figure 5's sender / targets /
// rivals / bystanders classification in a 4-node line: COW forks targets
// and bystanders, never the rivals or the sender.
func TestClassificationFigure5(t *testing.T) {
	net := newMockNet(4)
	m := NewCOW[*mockState](4)
	register(t, m, net)
	doBranch(m, net[0]) // sender + 1 rival on node 0
	doBranch(m, net[1]) // 2 targets on node 1
	// Nodes 2 and 3 are bystanders.
	before := statesOf(m)
	if len(before[0]) != 2 || len(before[1]) != 2 {
		t.Fatalf("setup wrong: %d node-0, %d node-1 states", len(before[0]), len(before[1]))
	}

	del, err := doSend(m, net[0], 1, 50)
	if err != nil {
		t.Fatalf("MapSend: %v", err)
	}
	if len(del.Receivers) != 2 {
		t.Errorf("targets = %d, want 2", len(del.Receivers))
	}
	// Forked: 2 target copies + 2 bystander copies.
	if len(del.Forked) != 4 {
		t.Errorf("forked = %d, want 4", len(del.Forked))
	}
	forkedByNode := map[int]int{}
	for _, f := range del.Forked {
		forkedByNode[f.node]++
	}
	if forkedByNode[0] != 0 {
		t.Error("a rival or the sender was forked")
	}
	if forkedByNode[1] != 2 || forkedByNode[2] != 1 || forkedByNode[3] != 1 {
		t.Errorf("forked per node = %v, want map[1:2 2:1 3:1]", forkedByNode)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Exactly the two bystander copies are duplicates.
	if d := duplicateGroups(m); d != 2 {
		t.Errorf("duplicate groups = %d, want 2", d)
	}
}

func TestCOWDScenarioCount(t *testing.T) {
	net := newMockNet(3)
	m := NewCOW[*mockState](3)
	register(t, m, net)
	doBranch(m, net[0])
	doBranch(m, net[1])
	// One dstate with buckets 2,2,1: 4 dscenarios.
	if got := m.DScenarioCount(); got.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("DScenarioCount = %v, want 4", got)
	}
	if _, err := doSend(m, net[0], 2, 9); err != nil {
		t.Fatal(err)
	}
	// Split: fresh dstate {sender, 2 copies of node1... no: copies of
	// targets (node 2: 1) and bystanders (node 1: 2)} = buckets 1,2,1 = 2;
	// old dstate buckets 1,2,1 = 2. Total 4 — the split preserves the
	// represented dscenario count.
	if got := m.DScenarioCount(); got.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("DScenarioCount after split = %v, want 4", got)
	}
}

func TestExplodeCOW(t *testing.T) {
	net := newMockNet(2)
	m := NewCOW[*mockState](2)
	register(t, m, net)
	doBranch(m, net[0])
	doBranch(m, net[0])
	// Buckets 3,1: 3 dscenarios.
	sc := m.Explode(0)
	if len(sc) != 3 {
		t.Fatalf("exploded = %d dscenarios, want 3", len(sc))
	}
	for _, s := range sc {
		if len(s) != 2 || s[0].node != 0 || s[1].node != 1 {
			t.Fatalf("malformed dscenario %v", s)
		}
	}
	if got := m.Explode(2); len(got) != 2 {
		t.Errorf("Explode(2) = %d, want 2", len(got))
	}
}

func TestNewFactory(t *testing.T) {
	for _, algo := range []Algorithm{COBAlgorithm, COWAlgorithm, SDSAlgorithm} {
		m, err := New[*mockState](algo, 3)
		if err != nil {
			t.Fatalf("New(%v): %v", algo, err)
		}
		if m.Algorithm() != algo {
			t.Errorf("New(%v).Algorithm() = %v", algo, m.Algorithm())
		}
	}
	if _, err := New[*mockState](Algorithm(99), 3); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	if COBAlgorithm.String() != "COB" || COWAlgorithm.String() != "COW" || SDSAlgorithm.String() != "SDS" {
		t.Error("algorithm names wrong")
	}
}

// TestSplitAllocs: a split makes a constant number of allocations at every
// network size besides the forks (one allocation each for a mock state),
// the only thing that grows with k. For COW those are the fresh dstate, its
// bucket table, the block its buckets are carved from, the delivery's two
// lists and here the dstate list's growth; COW made one allocation per node
// bucket and more for the delivery's lists before the block. SDS forks the
// target alone and makes a split's virtual copies as one allocation, beside
// the block the split carves every fresh bucket from, the sender's too.
func TestSplitAllocs(t *testing.T) {
	cases := []struct {
		algo  Algorithm
		forks func(k int) int
		want  uint64
	}{
		{COWAlgorithm, func(k int) int { return k - 1 }, 6},
		{SDSAlgorithm, func(int) int { return 1 }, 10},
	}
	for _, c := range cases {
		t.Run(c.algo.String(), func(t *testing.T) {
			for _, k := range []int{4, 16, 64} {
				m := newRegistered(t, c.algo, k)
				net := collectStates(m)
				doBranch(m, net[0]) // the sender gets a rival
				// Grow the index past the ids the split draws, so its
				// growth is not counted here.
				far := net[0].alloc.next + uint64(k) + 1
				switch m := m.(type) {
				case *COW[*mockState]:
					m.index.Set(far, m.dstates[0])
					m.index.Set(far, nil)
				case *SDS[*mockState]:
					m.virtuals.Set(far, m.virtuals.Get(net[0].ID()))
					m.virtuals.Set(far, nil)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				del, err := m.MapSend(net[0], 1)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if len(del.Forked) != c.forks(k) || len(del.Receivers) != 1 {
					t.Fatalf("k=%d: %d forks and %d receivers, want %d and 1",
						k, len(del.Forked), len(del.Receivers), c.forks(k))
				}
				if got := after.Mallocs - before.Mallocs - uint64(len(del.Forked)); got > c.want {
					t.Errorf("k=%d: a split made %d allocations besides its forks, want at most %d", k, got, c.want)
				}
			}
		})
	}
}

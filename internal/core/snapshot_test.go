package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// mapperOp applies one random operation to m, as fuzzMapper does: a local
// branch of a random state, or a send from it to a random other node. It
// returns the send's delivery (zero for a branch).
func mapperOp(t testing.TB, m Mapper[*mockState], k int, rng *rand.Rand, pkt uint64) Delivery[*mockState] {
	t.Helper()
	states := collectStates(m)
	s := states[rng.Intn(len(states))]
	if rng.Intn(2) == 0 {
		doBranch(m, s)
		return Delivery[*mockState]{}
	}
	dst := rng.Intn(k - 1)
	if dst >= s.node {
		dst++
	}
	del, err := doSend(m, s, dst, pkt)
	if err != nil {
		t.Fatalf("MapSend: %v", err)
	}
	return del
}

// newRegistered returns a mapper with every node of a fresh k-node mock
// network registered.
func newRegistered(t testing.TB, algo Algorithm, k int) Mapper[*mockState] {
	t.Helper()
	m, err := New[*mockState](algo, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range newMockNet(k) {
		m.Register(s)
	}
	return m
}

func mustSnapshot(t testing.TB, m Mapper[*mockState]) *MapperSnapshot {
	t.Helper()
	sp, err := SnapshotMapper[*mockState](m)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// putU64 feeds v to h.
func putU64(h hash.Hash64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

// hashSnapshot feeds sp to h as the words, with lengths, of the image
// format 12 kept — COB dstates as rows of one id per node, COW dstates as
// they are, SDS dstates each after its id and all after their count — so
// that TestMapperStructureGolden's constants outlive the change to one
// dstate table. Orders are hashed as they stand: two snapshots hash equal
// only if every dstate, bucket and super-dstate list is in the same order.
func hashSnapshot(h hash.Hash64, sp *MapperSnapshot) {
	ids := func(xs []uint64) {
		putU64(h, uint64(len(xs)))
		for _, x := range xs {
			putU64(h, x)
		}
	}
	// section feeds the dstates through each under algo, none otherwise.
	section := func(algo Algorithm, each func(i int, d [][]uint64)) {
		if sp.Algorithm != algo {
			putU64(h, 0)
			return
		}
		putU64(h, uint64(len(sp.DStates)))
		for i, d := range sp.DStates {
			each(i, d)
		}
	}
	buckets := func(_ int, d [][]uint64) {
		for _, bucket := range d {
			ids(bucket)
		}
	}
	putU64(h, uint64(sp.Algorithm))
	putU64(h, uint64(sp.K))
	nextDSID := 0
	if sp.Algorithm == SDSAlgorithm {
		nextDSID = len(sp.DStates)
	}
	putU64(h, uint64(nextDSID))
	section(COBAlgorithm, func(_ int, d [][]uint64) {
		row := make([]uint64, len(d))
		for node, bucket := range d {
			row[node] = bucket[0]
		}
		ids(row)
	})
	section(COWAlgorithm, buckets)
	section(SDSAlgorithm, func(i int, d [][]uint64) {
		putU64(h, uint64(i))
		buckets(i, d)
	})
	putU64(h, uint64(len(sp.Supers)))
	for _, si := range sp.Supers {
		putU64(h, si.StateID)
		putU64(h, uint64(len(si.DStateIDs)))
		for _, id := range si.DStateIDs {
			putU64(h, uint64(id))
		}
	}
}

// hashDelivery feeds a send's receivers and forks, in order, to h.
func hashDelivery(h hash.Hash64, del Delivery[*mockState]) {
	for _, states := range [][]*mockState{del.Receivers, del.Forked} {
		putU64(h, uint64(len(states)))
		for _, s := range states {
			putU64(h, s.id)
		}
	}
}

// TestMapperStructureGolden pins every mapper's structure, order included,
// over seeded random operation sequences: after each operation the send's
// delivery and the mapper's snapshot are hashed into one running hash per
// algorithm. Order is behaviour, not representation — SDS's ScenarioFor
// reads the head of a super-dstate list, which picks the dscenario a
// violation's witness model comes from, and that model is part of the
// report digest. A change to a mapper's bookkeeping that claims "same
// states, same digests" must leave these constants alone.
func TestMapperStructureGolden(t *testing.T) {
	cases := []struct {
		algo        Algorithm
		seeds, ops  int
		kmin, kspan int
		want        uint64
	}{
		{COBAlgorithm, 8, 12, 3, 3, 0x10d972d2e28d3ca},
		{COWAlgorithm, 12, 40, 3, 4, 0xeba023270ec29be1},
		{SDSAlgorithm, 20, 80, 3, 5, 0x8cae97dc9b4e6a86},
	}
	for _, c := range cases {
		t.Run(c.algo.String(), func(t *testing.T) {
			h := fnv.New64a()
			for seed := 0; seed < c.seeds; seed++ {
				k := c.kmin + seed%c.kspan
				rng := rand.New(rand.NewSource(int64(seed)))
				m := newRegistered(t, c.algo, k)
				for op := 0; op < c.ops; op++ {
					hashDelivery(h, mapperOp(t, m, k, rng, uint64(op+1)))
					hashSnapshot(h, mustSnapshot(t, m))
				}
			}
			if got := h.Sum64(); got != c.want {
				t.Errorf("structure hash = %#x, want %#x", got, c.want)
			}
		})
	}
}

// TestSnapshotRestoreContinue interrupts a random operation sequence: at op
// cut the mapper is snapshotted, restored over the same state objects, and
// the original dropped; the sequence then finishes on the restored mapper.
// Its final snapshot must equal that of an uninterrupted run of the same
// seed, so nothing a restore leaves out (SDS's per-send stamps among them)
// changes what later operations do.
func TestSnapshotRestoreContinue(t *testing.T) {
	cases := []struct {
		algo Algorithm
		k    int
		ops  int
	}{
		{COBAlgorithm, 4, 12},
		{COWAlgorithm, 5, 40},
		{SDSAlgorithm, 5, 80},
	}
	run := func(t *testing.T, algo Algorithm, k, ops, cut int, seed int64) *MapperSnapshot {
		rng := rand.New(rand.NewSource(seed))
		m := newRegistered(t, algo, k)
		for op := 0; op < ops; op++ {
			if op == cut {
				restored, err := RestoreMapper(mustSnapshot(t, m), sortedStates(m))
				if err != nil {
					t.Fatalf("op %d: restore: %v", op, err)
				}
				if err := restored.CheckInvariants(); err != nil {
					t.Fatalf("op %d: restored mapper: %v", op, err)
				}
				m = restored
			}
			mapperOp(t, m, k, rng, uint64(op+1))
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
		return mustSnapshot(t, m)
	}
	for _, c := range cases {
		t.Run(c.algo.String(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				want := run(t, c.algo, c.k, c.ops, -1, seed)
				for _, cut := range []int{1, c.ops / 3, c.ops - 1} {
					if got := run(t, c.algo, c.k, c.ops, cut, seed); !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d: restored at op %d, final snapshot differs from the uninterrupted run",
							seed, cut)
					}
				}
			}
		})
	}
}

// TestRestoreSDSRejectsMalformedSupers: a snapshot comes from disk, so
// RestoreMapper must refuse super-dstate lists that do not match the
// dstates exactly, with an error naming what is wrong.
func TestRestoreSDSRejectsMalformedSupers(t *testing.T) {
	m := newRegistered(t, SDSAlgorithm, 4)
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 30; op++ {
		mapperOp(t, m, 4, rng, uint64(op+1))
	}
	states := sortedStates(m)
	// The first state with two or more virtual states is the one to corrupt.
	wide := -1
	for i, si := range mustSnapshot(t, m).Supers {
		if len(si.DStateIDs) >= 2 {
			wide = i
			break
		}
	}
	if wide < 0 {
		t.Fatal("no state in two dstates: the sequence is too short to test with")
	}
	cases := []struct {
		name    string
		corrupt func(si *SuperImage)
		want    string
	}{
		{"listed twice", func(si *SuperImage) { si.DStateIDs[1] = si.DStateIDs[0] }, "twice"},
		{"unclaimed", func(si *SuperImage) { si.DStateIDs = si.DStateIDs[1:] }, "not claimed"},
		{"foreign dstate", func(si *SuperImage) { si.DStateIDs[0] = -1 }, "it is not in"},
	}
	for _, c := range cases {
		sp := mustSnapshot(t, m)
		c.corrupt(&sp.Supers[wide])
		_, err := RestoreMapper(sp, states)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RestoreMapper error = %v, want one containing %q", c.name, err, c.want)
		}
	}
	if _, err := RestoreMapper(mustSnapshot(t, m), states); err != nil {
		t.Fatalf("uncorrupted snapshot: %v", err)
	}
}

// TestRestoreSDSRefusesMisplacedDStates: a dstate's id is its position in
// the snapshot, so one moved to another position no longer holds the
// virtual states its super-dstates name there, and is refused; the honest
// snapshot restores.
func TestRestoreSDSRefusesMisplacedDStates(t *testing.T) {
	m := newRegistered(t, SDSAlgorithm, 4)
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 30; op++ {
		mapperOp(t, m, 4, rng, uint64(op+1))
	}
	states := sortedStates(m)
	if len(mustSnapshot(t, m).DStates) < 3 {
		t.Fatal("fewer than three dstates: the sequence is too short to test with")
	}
	sp := mustSnapshot(t, m)
	sp.DStates[1], sp.DStates[2] = sp.DStates[2], sp.DStates[1]
	if _, err := RestoreMapper(sp, states); err == nil || !strings.Contains(err.Error(), "it is not in") {
		t.Errorf("swapped: RestoreMapper error = %v, want one naming a dstate a state is not in", err)
	}
	if _, err := RestoreMapper(mustSnapshot(t, m), states); err != nil {
		t.Fatalf("honest snapshot: %v", err)
	}
}

// TestRestoreSDSSparseIDs: the state ids of a frontier have gaps once it
// is sliced, and RestoreMapper then finds a state's super-dstate by binary
// search, the guess at its offset from the first missing. A restore over
// ids spread out rebuilds the mapper its snapshot came from.
func TestRestoreSDSSparseIDs(t *testing.T) {
	m := newRegistered(t, SDSAlgorithm, 4)
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 40; op++ {
		mapperOp(t, m, 4, rng, uint64(op+1))
	}
	m.ForEachState(func(s *mockState) { s.id = 3*s.id + 7 })
	want := mustSnapshot(t, m)
	restored, err := RestoreMapper(want, sortedStates(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := mustSnapshot(t, restored); !reflect.DeepEqual(got, want) {
		t.Error("restored over sparse ids, the mapper snapshots differently")
	}
}

// TestRestoreCOBSparseIDs is TestRestoreSDSSparseIDs for COB.
func TestRestoreCOBSparseIDs(t *testing.T) { restoreSparseIDs(t, COBAlgorithm) }

// TestRestoreCOWSparseIDs is TestRestoreSDSSparseIDs for COW.
func TestRestoreCOWSparseIDs(t *testing.T) { restoreSparseIDs(t, COWAlgorithm) }

// restoreSparseIDs restores a mapper of algo over state ids spread out as a
// sliced frontier's are: it must rebuild the mapper its snapshot came from,
// keep the restored ids in its index's sorted part, and index the states
// forked after the restore densely from the first of them.
func restoreSparseIDs(t *testing.T, algo Algorithm) {
	m := newRegistered(t, algo, 4)
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 40; op++ {
		mapperOp(t, m, 4, rng, uint64(op+1))
	}
	var alloc *mockAlloc
	m.ForEachState(func(s *mockState) {
		s.id = 1000*s.id + 7
		alloc = s.alloc
	})
	states := sortedStates(m)
	want := mustSnapshot(t, m)
	restored, err := RestoreMapper(want, states)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := mustSnapshot(t, restored); !reflect.DeepEqual(got, want) {
		t.Fatal("restored over sparse ids, the mapper snapshots differently")
	}
	index := func() *IDIndex[uint64] {
		var x IDIndex[uint64]
		switch r := restored.(type) {
		case *COB[*mockState]:
			r.index.Each(func(id uint64, _ *dstate[*mockState]) { x.Set(id, 1) })
			if len(r.index.ids) != len(states) || len(r.index.at) != 0 {
				t.Errorf("COB index holds %d restored ids and %d dense slots, want %d and 0",
					len(r.index.ids), len(r.index.at), len(states))
			}
		case *COW[*mockState]:
			r.index.Each(func(id uint64, _ *dstate[*mockState]) { x.Set(id, 1) })
			if len(r.index.ids) != len(states) || len(r.index.at) != 0 {
				t.Errorf("COW index holds %d restored ids and %d dense slots, want %d and 0",
					len(r.index.ids), len(r.index.at), len(states))
			}
		}
		return &x
	}
	if x := index(); x.Len() != len(states) {
		t.Fatalf("the restored index holds %d states, the snapshot %d", x.Len(), len(states))
	}
	// The run goes on: forks draw ids above every restored one.
	alloc.next = max(alloc.next, states[len(states)-1].id)
	first := alloc.next + 1
	for op := 0; op < 40; op++ {
		mapperOp(t, restored, 4, rng, uint64(op+41))
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	switch r := restored.(type) {
	case *COB[*mockState]:
		if r.index.base != first || uint64(len(r.index.at)) != alloc.next-first+1 {
			t.Errorf("COB dense part covers [%d, %d), want [%d, %d]",
				r.index.base, r.index.base+uint64(len(r.index.at)), first, alloc.next)
		}
	case *COW[*mockState]:
		if r.index.base != first || uint64(len(r.index.at)) > alloc.next-first+1 {
			t.Errorf("COW dense part covers [%d, %d), want within [%d, %d]",
				r.index.base, r.index.base+uint64(len(r.index.at)), first, alloc.next)
		}
	}
}

// TestRestoreAccountsForEveryState: a restore places every state it is
// given, and each mapper refuses a snapshot that leaves one out, lists
// super-dstates that do not match the states one for one, names the states
// out of id order, or breaks its own shape — with an error saying what is
// wrong.
func TestRestoreAccountsForEveryState(t *testing.T) {
	mapper := func(algo Algorithm) Mapper[*mockState] {
		m := newRegistered(t, algo, 4)
		rng := rand.New(rand.NewSource(3))
		for op := 0; op < 30; op++ {
			mapperOp(t, m, 4, rng, uint64(op+1))
		}
		return m
	}
	// orphan adds a state no dstate holds, above every id.
	orphan := func(states []*mockState) []*mockState {
		return append(states, states[len(states)-1].Fork())
	}
	cases := []struct {
		name    string
		algo    Algorithm
		corrupt func(sp *MapperSnapshot, states []*mockState) []*mockState
		want    string
	}{
		{"COB orphan", COBAlgorithm, func(_ *MapperSnapshot, st []*mockState) []*mockState { return orphan(st) }, "in no dstate"},
		{"COW orphan", COWAlgorithm, func(_ *MapperSnapshot, st []*mockState) []*mockState { return orphan(st) }, "in no dstate"},
		{"SDS orphan", SDSAlgorithm, func(_ *MapperSnapshot, st []*mockState) []*mockState { return orphan(st) }, "super-dstates for"},
		{"SDS orphan with an empty super-dstate", SDSAlgorithm, func(sp *MapperSnapshot, st []*mockState) []*mockState {
			st = orphan(st)
			sp.Supers = append(sp.Supers, SuperImage{StateID: st[len(st)-1].id})
			return st
		}, "in no dstate"},
		{"SDS super-dstate missing", SDSAlgorithm, func(sp *MapperSnapshot, st []*mockState) []*mockState {
			sp.Supers = sp.Supers[1:]
			return st
		}, "super-dstates for"},
		{"SDS super-dstates out of order", SDSAlgorithm, func(sp *MapperSnapshot, st []*mockState) []*mockState {
			sp.Supers[0], sp.Supers[1] = sp.Supers[1], sp.Supers[0]
			return st
		}, "not of state"},
		{"COW ids descend", COWAlgorithm, func(_ *MapperSnapshot, st []*mockState) []*mockState {
			st[0], st[1] = st[1], st[0]
			return st
		}, "ascend"},
		{"COW id repeats", COWAlgorithm, func(_ *MapperSnapshot, st []*mockState) []*mockState {
			return append(st[:1:1], st...)
		}, "ascend"},
		{"COB with a COW bucket", COWAlgorithm, func(sp *MapperSnapshot, st []*mockState) []*mockState {
			sp.Algorithm = COBAlgorithm
			return st
		}, "states for node"},
		{"COW with super-dstates", SDSAlgorithm, func(sp *MapperSnapshot, st []*mockState) []*mockState {
			sp.Algorithm = COWAlgorithm
			return st
		}, "super-dstates"},
	}
	for _, c := range cases {
		m := mapper(c.algo)
		if _, err := RestoreMapper(mustSnapshot(t, m), sortedStates(m)); err != nil {
			t.Fatalf("%s: honest snapshot: %v", c.name, err)
		}
		sp := mustSnapshot(t, m)
		states := c.corrupt(sp, sortedStates(m))
		if _, err := RestoreMapper(sp, states); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RestoreMapper error = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

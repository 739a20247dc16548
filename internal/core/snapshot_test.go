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

// hashSnapshot feeds every field of sp, with lengths, to h. Orders are
// hashed as they stand: two snapshots hash equal only if every dscenario,
// dstate, bucket and super-dstate list is in the same order.
func hashSnapshot(h hash.Hash64, sp *MapperSnapshot) {
	ids := func(xs []uint64) {
		putU64(h, uint64(len(xs)))
		for _, x := range xs {
			putU64(h, x)
		}
	}
	putU64(h, uint64(sp.Algorithm))
	putU64(h, uint64(sp.K))
	putU64(h, uint64(sp.NextDSID))
	putU64(h, uint64(len(sp.Scenarios)))
	for _, row := range sp.Scenarios {
		ids(row)
	}
	putU64(h, uint64(len(sp.DStates)))
	for _, d := range sp.DStates {
		for _, bucket := range d {
			ids(bucket)
		}
	}
	putU64(h, uint64(len(sp.VDStates)))
	for _, d := range sp.VDStates {
		putU64(h, uint64(d.ID))
		for _, bucket := range d.ByNode {
			ids(bucket)
		}
	}
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
				byID := map[uint64]*mockState{}
				m.ForEachState(func(s *mockState) { byID[s.id] = s })
				restored, err := RestoreMapper[*mockState](mustSnapshot(t, m), func(id uint64) (*mockState, bool) {
					s, ok := byID[id]
					return s, ok
				})
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
	byID := map[uint64]*mockState{}
	m.ForEachState(func(s *mockState) { byID[s.id] = s })
	lookup := func(id uint64) (*mockState, bool) {
		s, ok := byID[id]
		return s, ok
	}
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
		_, err := RestoreMapper[*mockState](sp, lookup)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RestoreMapper error = %v, want one containing %q", c.name, err, c.want)
		}
	}
	if _, err := RestoreMapper[*mockState](mustSnapshot(t, m), lookup); err != nil {
		t.Fatalf("uncorrupted snapshot: %v", err)
	}
}

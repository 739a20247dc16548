package core

import (
	"cmp"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// collectStates snapshots the mapper's current states.
func collectStates(m Mapper[*mockState]) []*mockState {
	var out []*mockState
	m.ForEachState(func(s *mockState) { out = append(out, s) })
	return out
}

// sortedStates returns the mapper's states in ascending id order, as
// RestoreMapper takes them.
func sortedStates(m Mapper[*mockState]) []*mockState {
	out := collectStates(m)
	slices.SortFunc(out, func(a, b *mockState) int { return cmp.Compare(a.id, b.id) })
	return out
}

// fuzzMapper drives a mapper through a random interleaving of local
// branches and transmissions, checking after every operation that
//
//   - the algorithm's structural invariants hold (incl. conflict-freedom),
//   - MapSend never changes the number of represented dscenarios (it only
//     restructures how they are represented),
//   - OnBranch strictly increases it, and
//   - for SDS, no operation ever creates a duplicate state (§III-D);
//
// and at the end that a restore of the mapper's snapshot over the same
// states passes the invariants and snapshots equal.
func fuzzMapper(t testing.TB, algo Algorithm, k, nOps int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := newMockNet(k)
	m, err := New[*mockState](algo, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range net {
		m.Register(s)
	}
	var pkt uint64
	for op := 0; op < nOps; op++ {
		states := collectStates(m)
		s := states[rng.Intn(len(states))]
		before := m.DScenarioCount()
		if rng.Intn(2) == 0 {
			doBranch(m, s)
			after := m.DScenarioCount()
			if after.Cmp(before) <= 0 {
				t.Fatalf("op %d: branch did not increase dscenario count (%v -> %v)",
					op, before, after)
			}
		} else {
			dst := rng.Intn(k - 1)
			if dst >= s.node {
				dst++
			}
			pkt++
			if _, err := doSend(m, s, dst, pkt); err != nil {
				t.Fatalf("op %d: MapSend: %v", op, err)
			}
			after := m.DScenarioCount()
			if after.Cmp(before) != 0 {
				t.Fatalf("op %d: MapSend changed dscenario count (%v -> %v)",
					op, before, after)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if algo == SDSAlgorithm {
			if d := duplicateGroups(m); d != 0 {
				t.Fatalf("op %d: SDS created %d duplicate state groups", op, d)
			}
		}
	}
	// Explode agrees with the count when small enough to enumerate.
	count := m.DScenarioCount()
	if count.Cmp(big.NewInt(4096)) <= 0 {
		if got := len(m.Explode(0)); big.NewInt(int64(got)).Cmp(count) != 0 {
			t.Fatalf("Explode yields %d dscenarios, DScenarioCount says %v", got, count)
		}
	}
	sp, err := SnapshotMapper(m)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreMapper(sp, sortedStates(m))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("restored mapper: %v", err)
	}
	if got, err := SnapshotMapper(restored); err != nil || !reflect.DeepEqual(got, sp) {
		t.Fatalf("the restored mapper snapshots differently (err %v)", err)
	}
}

func TestFuzzCOB(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		fuzzMapper(t, COBAlgorithm, 3+int(seed)%3, 12, seed)
	}
}

func TestFuzzCOW(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		fuzzMapper(t, COWAlgorithm, 3+int(seed)%4, 25, seed)
	}
}

func TestFuzzSDS(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		fuzzMapper(t, SDSAlgorithm, 3+int(seed)%4, 30, seed)
	}
}

// statesOfNode snapshots the mapper's current states of one node.
func statesOfNode(m Mapper[*mockState], node int) []*mockState {
	var out []*mockState
	m.ForEachState(func(s *mockState) {
		if s.node == node {
			out = append(out, s)
		}
	})
	return out
}

// TestStateGrowthOrdering runs the same logical workload — a packet
// forwarded along a line where every receiving state makes a symbolic
// drop decision — on the three algorithms and checks the paper's headline
// ordering: states(SDS) < states(COW) < states(COB). Unlike the fuzz
// driver, the workload is execution-faithful: *every* state of the
// forwarding node transmits (duplicates execute too, which is exactly why
// they are expensive), and every state that received the packet branches.
func TestStateGrowthOrdering(t *testing.T) {
	run := func(algo Algorithm) int {
		const k = 5
		net := newMockNet(k)
		m, err := New[*mockState](algo, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range net {
			m.Register(s)
		}
		for hop := 0; hop < k-1; hop++ {
			pkt := uint64(hop + 1)
			var receivers []*mockState
			seen := map[*mockState]bool{}
			for _, s := range statesOfNode(m, hop) {
				del, err := doSend(m, s, hop+1, pkt)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range del.Receivers {
					if !seen[r] {
						seen[r] = true
						receivers = append(receivers, r)
					}
				}
			}
			for _, r := range receivers {
				doBranch(m, r) // symbolic drop decision on reception
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("%v hop %d: %v", algo, hop, err)
			}
		}
		return m.NumStates()
	}
	cob := run(COBAlgorithm)
	cow := run(COWAlgorithm)
	sds := run(SDSAlgorithm)
	if !(sds < cow && cow < cob) {
		t.Errorf("state ordering violated: SDS=%d COW=%d COB=%d (want SDS < COW < COB)",
			sds, cow, cob)
	}
}

// FuzzMapper is the coverage-guided companion of TestFuzzCOB/COW/SDS:
// the fuzzer picks the algorithm, network size, operation count, and
// interleaving seed, and the same invariant battery must hold.
func FuzzMapper(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(20), int64(1))
	f.Add(uint8(1), uint8(4), uint8(25), int64(2))
	f.Add(uint8(2), uint8(2), uint8(30), int64(3))
	algos := []Algorithm{COBAlgorithm, COWAlgorithm, SDSAlgorithm}
	f.Fuzz(func(t *testing.T, algoByte, kByte, opsByte uint8, seed int64) {
		algo := algos[int(algoByte)%len(algos)]
		k := 2 + int(kByte)%4       // 2..5 nodes
		nOps := 1 + int(opsByte)%30 // bounded so COB stays small
		fuzzMapper(t, algo, k, nOps, seed)
	})
}

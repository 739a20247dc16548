package core

import (
	"fmt"
	"testing"
)

// benchNet prepares a mapper with b branched states per armed node, the
// population shape of a mid-run scenario.
func benchNet(tb testing.TB, algo Algorithm, k, branches int) (Mapper[*mockState], []*mockState) {
	tb.Helper()
	net := newMockNet(k)
	m, err := New[*mockState](algo, k)
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range net {
		m.Register(s)
	}
	for i := 0; i < branches; i++ {
		doBranch(m, net[0])
		doBranch(m, net[1])
	}
	return m, net
}

// wideNet prepares an SDS mapper on three nodes whose node-1 state sits in
// 2*half+1 dstates, and returns half senders on node 0, each alone on its
// node in a dstate of its own that also holds the node-1 state. Sending
// from them in order to node 1 is a run of wide sends: the i-th finds its
// target in 2*half+1-i dstates, receives in one and forks the rest off.
func wideNet(tb testing.TB, half int) (Mapper[*mockState], []*mockState) {
	tb.Helper()
	m, net := benchNet(tb, SDSAlgorithm, 3, 0)
	senders := []*mockState{net[0]}
	for i := 0; i < 2*half; i++ {
		sib, _ := doBranch(m, net[0])
		senders = append(senders, sib)
	}
	// Each send from dstate 0, where every sender has rivals, splits the
	// sender into a fresh dstate with a copy of the node-1 state.
	for i, s := range senders[:2*half] {
		if _, err := doSend(m, s, 2, uint64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if n := m.(*SDS[*mockState]).SuperDStateSize(net[1]); n != 2*half+1 {
		tb.Fatalf("node-1 state in %d dstates, want %d", n, 2*half+1)
	}
	return m, senders[:half]
}

// BenchmarkMapSend measures one state-mapping resolution per algorithm on
// a 32-node network where the sender has rivals — the hot operation of
// every SDE run. COW pays for bystander forks, SDS only for virtual
// bookkeeping. SDS-wide is the send that dominates SDS at paper traffic:
// its target is in 258 to 513 dstates and only one holds the sender, so
// every other virtual state of the target moves to the fork.
func BenchmarkMapSend(b *testing.B) {
	for _, algo := range []Algorithm{COWAlgorithm, SDSAlgorithm} {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, net := benchNet(b, algo, 32, 1)
				b.StartTimer()
				if _, err := doSend(m, net[0], 1, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("SDS-wide", func(b *testing.B) {
		b.ReportAllocs()
		var m Mapper[*mockState]
		var senders []*mockState
		for i := 0; i < b.N; i++ {
			if len(senders) == 0 {
				b.StopTimer()
				m, senders = wideNet(b, 256)
				b.StartTimer()
			}
			if _, err := doSend(m, senders[0], 1, uint64(i)); err != nil {
				b.Fatal(err)
			}
			senders = senders[1:]
		}
	})
}

// BenchmarkOnBranch measures the local-branch cost: free for COW/SDS,
// a whole-dscenario fork for COB.
func BenchmarkOnBranch(b *testing.B) {
	for _, algo := range []Algorithm{COBAlgorithm, COWAlgorithm, SDSAlgorithm} {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, net := benchNet(b, algo, 32, 0)
				b.StartTimer()
				doBranch(m, net[0])
			}
		})
	}
}

// BenchmarkExplodeMapper measures dscenario enumeration from the compact
// representations.
func BenchmarkExplodeMapper(b *testing.B) {
	for _, algo := range []Algorithm{COWAlgorithm, SDSAlgorithm} {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			m, net := benchNet(b, algo, 8, 3)
			for hop := 0; hop < 7; hop++ {
				if _, err := doSend(m, net[hop], hop+1, uint64(hop)); err != nil {
					b.Fatal(err)
				}
			}
			count := m.DScenarioCount().Int64()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := len(m.Explode(0)); int64(got) != count {
					b.Fatalf("exploded %d, want %d", got, count)
				}
			}
			b.ReportMetric(float64(count), "dscenarios")
		})
	}
}

// BenchmarkSuperDStateGrowth demonstrates the SDS virtual-state overhead:
// repeated conflicted sends grow bystander super-dstates, and the
// bookkeeping per send with it.
func BenchmarkSuperDStateGrowth(b *testing.B) {
	for _, sends := range []int{4, 16, 64} {
		sends := sends
		b.Run(fmt.Sprintf("sends%d", sends), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, net := benchNet(b, SDSAlgorithm, 16, 1)
				b.StartTimer()
				for j := 0; j < sends; j++ {
					src := net[j%2]
					if _, err := doSend(m, src, 2+(j%14), uint64(j)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

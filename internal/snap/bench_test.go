package snap_test

import (
	"testing"

	"sde/internal/core"
	"sde/internal/rime"
	"sde/internal/sim"
)

// collectFrontier runs a dim×dim grid collect of the given number of
// packets to completion — the paper's grid scenario, dropping the first
// transmission of every route node — and returns the finished engine and
// its config. Its frontier is what a checkpointed run's final snapshot
// holds.
func collectFrontier(tb testing.TB, algo core.Algorithm, dim, packets int) (*sim.Engine, sim.Config) {
	tb.Helper()
	prog, err := rime.CollectProgram()
	if err != nil {
		tb.Fatal(err)
	}
	g := sim.NewGrid(dim, dim)
	route := g.StaircaseRoute(g.K()-1, 0)
	const interval = 1000
	cc := rime.CollectConfig{Source: g.K() - 1, Sink: 0, Route: route, Interval: interval, Packets: uint32(packets)}
	nodeInit, err := cc.NodeInit(g.K())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.Config{
		Topo:      g,
		Prog:      prog,
		Algorithm: algo,
		Horizon:   interval*uint64(packets) + interval,
		NodeInit:  nodeInit,
		Failures:  sim.FailurePlan{DropFirst: sim.NodeSet(route)},
	}
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for eng.Step() {
	}
	return eng, cfg
}

// benchFrontier is the frontier the snapshot benchmarks and the allocation
// guard share: a finished 5×5 collect of three packets, a few thousand
// states for COB and COW, about a thousand for SDS.
func benchFrontier(tb testing.TB, algo core.Algorithm) (*sim.Engine, sim.Config) {
	return collectFrontier(tb, algo, 5, 3)
}

// BenchmarkSnapshotEncode measures what a checkpoint costs beyond the run:
// flattening a finished frontier (Engine.Snapshot) and encoding it.
func BenchmarkSnapshotEncode(b *testing.B) {
	for _, algo := range allAlgorithms {
		b.Run(algo.String(), func(b *testing.B) {
			eng, _ := benchFrontier(b, algo)
			var n int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp, err := eng.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				data, err := sp.Encode(eng.Ctx().Exprs)
				if err != nil {
					b.Fatal(err)
				}
				n = len(sp.States)
				b.SetBytes(int64(len(data)))
			}
			b.ReportMetric(float64(n), "states")
		})
	}
}

// BenchmarkSnapshotResume measures what resuming a finished directory costs
// beyond reading the file: decoding the snapshot, restoring its states and
// mapper into a fresh engine, and running it, which replays no event.
func BenchmarkSnapshotResume(b *testing.B) {
	for _, algo := range allAlgorithms {
		b.Run(algo.String(), func(b *testing.B) {
			eng, cfg := benchFrontier(b, algo)
			sp, err := eng.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			data, err := sp.Encode(eng.Ctx().Exprs)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resumed, err := sim.ResumeEngine(cfg, data)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := resumed.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(sp.States)), "states")
		})
	}
}

// TestSnapshotAllocsPerState guards the checkpoint path against sliding
// back to an allocation per list element: over the benchmarks' frontier,
// flattening and encoding it, and resuming it (decoding, restoring its
// states and mapper, running the finished engine), stay under a per-state
// allocation budget. The budgets sit above what this code takes — about 1
// per state to encode; 5 (COB), 6 (COW) and 13 (SDS) to resume — with
// room for another Go release, and well below the 5 to 13 and 11 to 30 it
// took while images were copied and restores went through maps.
func TestSnapshotAllocsPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 5×5 frontiers")
	}
	budgets := map[core.Algorithm]struct{ encode, resume float64 }{
		core.COBAlgorithm: {2.5, 8},
		core.COWAlgorithm: {2.5, 9},
		core.SDSAlgorithm: {2.5, 20},
	}
	for _, algo := range allAlgorithms {
		eng, cfg := benchFrontier(t, algo)
		var data []byte
		var states float64
		encode := testing.AllocsPerRun(2, func() {
			sp, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if data, err = sp.Encode(eng.Ctx().Exprs); err != nil {
				t.Fatal(err)
			}
			states = float64(len(sp.States))
		})
		resume := testing.AllocsPerRun(2, func() {
			resumed, err := sim.ResumeEngine(cfg, data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := resumed.Run(); err != nil {
				t.Fatal(err)
			}
		})
		b := budgets[algo]
		t.Logf("%v: %.0f states, %.2f allocations per state to encode, %.2f to resume",
			algo, states, encode/states, resume/states)
		if encode/states > b.encode {
			t.Errorf("%v: Snapshot+Encode takes %.2f allocations per state, budget %.1f", algo, encode/states, b.encode)
		}
		if resume/states > b.resume {
			t.Errorf("%v: resume takes %.2f allocations per state, budget %.1f", algo, resume/states, b.resume)
		}
	}
}

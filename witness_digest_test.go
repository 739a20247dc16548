package sde_test

import (
	"fmt"
	"runtime"
	"testing"

	"sde"
	"sde/internal/shard"
)

// witnessScenario is a small violation-bearing, query-bearing run: node 0
// broadcasts a symbolic reading, and every other node draws a symbolic
// offset, branches on one mix of the two and asserts another. Its
// violation witnesses and its test cases need the SAT core, and they share
// constraints, so a model that depended on what the solver had decided
// before would show in the digest.
func witnessScenario(t testing.TB, k int, algo sde.Algorithm) sde.Scenario {
	t.Helper()
	pb := sde.NewProgramBuilder()
	boot := pb.Func("boot")
	boot.NodeID(sde.R1)
	boot.BrNZ(sde.R1, "done")
	boot.Sym(sde.R2, "a", 8)
	boot.MovI(sde.R4, 0x100)
	boot.Store(sde.R4, 0, sde.R2)
	boot.MovI(sde.R3, sde.BroadcastAddr)
	boot.Send(sde.R3, sde.R4, 1)
	boot.Label("done")
	boot.Ret()
	recv := pb.Func("on_recv")
	recv.Load(sde.R2, sde.R1, 0) // the sender's reading
	recv.Sym(sde.R3, "b", 8)
	recv.MulI(sde.R4, sde.R2, 3)
	recv.Add(sde.R4, sde.R4, sde.R3)
	recv.UltI(sde.R5, sde.R4, 300)
	recv.BrNZ(sde.R5, "low")
	recv.Label("low")
	recv.MulI(sde.R6, sde.R3, 5)
	recv.Add(sde.R6, sde.R6, sde.R2)
	recv.AndI(sde.R6, sde.R6, 0xff)
	recv.NeI(sde.R7, sde.R6, 77)
	recv.Assert(sde.R7, "mix hits 77")
	recv.Ret()
	prog, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	receivers := make([]int, 0, k-1)
	for n := 1; n < k; n++ {
		receivers = append(receivers, n)
	}
	s, err := sde.CustomScenario("witness", sde.CustomConfig{
		Topology:       sde.FullMesh(k),
		Program:        prog,
		Algorithm:      algo,
		HorizonTicks:   100,
		Failures:       sde.FailurePlan{DropFirst: sde.NodeSet(receivers)},
		ShardableNodes: receivers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDigestStableAcrossResume: Digest(8) — violation witnesses and eight
// test cases per shard included — is the same whether a partition ran in
// one process, was checkpointed and resumed, or ran on another number of
// workers or CPUs. A resumed run solves its test cases on a solver that has
// decided nothing yet, and witnesses are solved off the interpreter thread
// in whatever order the CPUs allow, so this holds only because a witness is
// a function of its constraint set.
func TestDigestStableAcrossResume(t *testing.T) {
	const cases = 8
	digest := func(t *testing.T, rep *sde.ShardedReport) string {
		t.Helper()
		d, err := rep.Digest(cases)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	single := func(rep *sde.Report) *sde.ShardedReport {
		return &sde.ShardedReport{Shards: []sde.ShardReport{{Report: rep}}}
	}
	for _, algo := range sde.Algorithms {
		t.Run(algo.String(), func(t *testing.T) {
			s := witnessScenario(t, 4, algo)

			// One partition: a plain run, a checkpointed run and its
			// resume, and the pool at two workers.
			plain, err := sde.RunScenario(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.Violations()) == 0 {
				t.Fatal("the scenario reports no violation")
			}
			want := digest(t, single(plain))
			dir := t.TempDir()
			ck, err := sde.Checkpoint(s, dir)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := sde.Resume(s, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !resumed.Resumed() {
				t.Fatal("Resume did not resume")
			}
			pool, err := sde.RunScenarioShardedWith(s, sde.ShardConfig{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			reports := map[string]*sde.ShardedReport{
				"checkpoint": single(ck), "resume": single(resumed), "pool": pool,
			}
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				rep, err := sde.RunScenario(s)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				reports[fmt.Sprintf("GOMAXPROCS=%d", procs)] = single(rep)
			}
			for name, rep := range reports {
				if got := digest(t, rep); got != want {
					t.Errorf("%s: Digest(%d) = %s, plain run has %s", name, cases, got, want)
				}
			}

			// Two shard bits: in-process, checkpointed, every leaf resumed
			// from its checkpoint on one worker, and every leaf run as a
			// lease and assembled from the snapshot it shipped.
			cfg := sde.ShardConfig{ShardBits: 2, Workers: 2}
			sharded, err := sde.RunScenarioShardedWith(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want = digest(t, sharded)
			cfg.CheckpointDir = t.TempDir()
			first, err := sde.RunScenarioShardedWith(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 1
			again, err := sde.RunScenarioShardedWith(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if again.Sched.Resumed != len(again.Shards) {
				t.Fatalf("rerun resumed %d of %d shards", again.Sched.Resumed, len(again.Shards))
			}
			assembled, err := sde.AssembleSharded(s, leaseCover(t, s, t.TempDir(), shard.Partition{ShardBits: 2}, nil))
			if err != nil {
				t.Fatal(err)
			}
			for name, rep := range map[string]*sde.ShardedReport{
				"checkpointed": first, "resumed": again, "leases": assembled,
			} {
				if got := digest(t, rep); got != want {
					t.Errorf("2 bits, %s: Digest(%d) = %s, in-process run has %s", name, cases, got, want)
				}
			}
		})
	}
}

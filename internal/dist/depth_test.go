package dist

// Depth-horizon partitioning over the wire: jobs with a depth horizon
// suspend leases at event boundaries, ship frontiers back as MsgSuspend,
// and fan continuation leases (MsgLease with a frontier) out to the fleet.
// The assembled report must match the in-process horizon-partitioned
// oracle bit-for-bit, including across a worker crash mid-continuation.

import (
	"context"
	"testing"
	"time"

	"sde"
)

// oracleDigestHorizon is the in-process ground truth for a
// depth-partitioned job: same spec, same (horizon, fanout) pair.
func oracleDigestHorizon(t *testing.T, spec sde.ScenarioSpec, bits, testCases int,
	horizon uint64, fanout int) string {
	t.Helper()
	s, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sde.RunScenarioShardedWith(s, sde.ShardConfig{
		ShardBits:     bits,
		DepthHorizon:  horizon,
		HorizonFanout: fanout,
	})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := rep.Digest(testCases)
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

// TestServiceDepthPartition is the acceptance test for the second shard
// dimension: a job with zero shard bits but a depth horizon spreads over
// two workers via continuation leases, and the assembled report is
// bit-identical to the in-process run with the same horizon. The COB
// spec exercises real frontier slicing (fan-out 2); the default SDS
// spec exercises the fan-out-1 continuation chain.
func TestServiceDepthPartition(t *testing.T) {
	cases := []struct {
		name    string
		spec    sde.ScenarioSpec
		horizon uint64
	}{
		{"cob-fanout", func() sde.ScenarioSpec {
			s := testSpec
			s.Algorithm = "cob"
			return s
		}(), 300},
		{"sds-chain", testSpec, 50},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, addr := startCoordinator(t, Options{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			startWorker(t, ctx, addr, WorkerOptions{Name: "w0"})
			startWorker(t, ctx, addr, WorkerOptions{Name: "w1"})

			id, err := c.AddJobWith(tc.spec, JobOptions{
				TestCases:    8,
				DepthHorizon: tc.horizon,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := waitJob(t, c, id, 60*time.Second)
			if st.State != JobDone {
				t.Fatalf("job state = %s (%s)", st.State, st.Error)
			}
			want := oracleDigestHorizon(t, tc.spec, 0, 8, tc.horizon, 0)
			if st.Digest != want {
				t.Errorf("distributed digest %s != in-process digest %s", st.Digest, want)
			}
			reg := c.Registry()
			if n := reg.Value("sde_lease_suspensions_total", nil); n < 1 {
				t.Errorf("suspensions = %v, want >= 1", n)
			}
			if n := reg.Value("sde_continuation_leases_total", nil); n < 1 {
				t.Errorf("continuation leases = %v, want >= 1", n)
			}
			if n := reg.Value("sde_continuation_blobs", nil); n != 0 {
				t.Errorf("continuation blobs still held after job done: %v", n)
			}
		})
	}
}

// TestServiceDepthCrashRecovery SIGKILLs (abrupt connection drop) a
// worker mid-continuation-lease and requires the restarted fleet to
// finish with the in-process digest: re-issued continuation leases
// resume from the crashed worker's own checkpoint or re-slice the
// parent frontier the coordinator still holds.
func TestServiceDepthCrashRecovery(t *testing.T) {
	spec := testSpec
	spec.Algorithm = "cob"
	const horizon = 300

	c, addr := startCoordinator(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Phase 1: a throwaway worker runs the root lease until it suspends
	// and the continuation items are queued, then is torn down (anything
	// it still holds requeues on disconnect). That guarantees the
	// crasher's first lease is a continuation item.
	ctx0, cancel0 := context.WithCancel(context.Background())
	defer cancel0()
	startWorker(t, ctx0, addr, WorkerOptions{Name: "w0", CheckpointEvery: 1})

	id, err := c.AddJobWith(spec, JobOptions{TestCases: 8, DepthHorizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.Registry().Value("sde_lease_suspensions_total", nil) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("root lease never suspended")
		}
		if st, ok := c.JobStatus(id); ok && st.State != JobRunning {
			t.Fatalf("job reached %s before any suspension", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel0()

	// Phase 2: the crasher picks up a continuation lease and drops its
	// connection right after that lease's first durable checkpoints —
	// mid-continuation, like a SIGKILL.
	crashDir := t.TempDir()
	crasher := startWorker(t, ctx, addr, WorkerOptions{
		Name:                  "crasher",
		WorkDir:               crashDir,
		CheckpointEvery:       1,
		CrashAfterCheckpoints: 3,
	})
	select {
	case err := <-crasher:
		if err != ErrCrashed {
			t.Fatalf("crasher exited with %v, want ErrCrashed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("crash hook never fired")
	}

	// Phase 3: a fresh worker plus the restarted crasher (same work
	// directory, so its re-issued lease resumes from the crash-time
	// checkpoint) finish the job.
	startWorker(t, ctx, addr, WorkerOptions{Name: "w1"})
	startWorker(t, ctx, addr, WorkerOptions{Name: "crasher", WorkDir: crashDir})

	st := waitJob(t, c, id, 60*time.Second)
	if st.State != JobDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	want := oracleDigestHorizon(t, spec, 0, 8, horizon, 0)
	if st.Digest != want {
		t.Errorf("post-crash digest %s != in-process digest %s", st.Digest, want)
	}
}

package dist

// A scenario's layer set must survive every way of running it. The layers
// live on the scenario (in a fleet: in the job's spec) and nowhere else,
// so no run path has anything to overwrite them with — these tests pin
// that from the outside, through each layer's own activity counter.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sde"
)

// runFleetJob runs one job on a fresh coordinator with two workers and
// returns its final status plus the leaves of the report the coordinator
// assembled from the snapshots the workers shipped — no live per-lease
// report exists coordinator-side; the counters are the ones the snapshots
// carried home.
func runFleetJob(t *testing.T, spec sde.ScenarioSpec, opts JobOptions) (JobStatus, *Coordinator, []*sde.Report) {
	t.Helper()
	c, addr := startCoordinator(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	startWorker(t, ctx, addr, WorkerOptions{Name: "w0"})
	startWorker(t, ctx, addr, WorkerOptions{Name: "w1"})
	id, err := c.AddJobWith(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, c, id, 60*time.Second)
	if st.State != JobDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	report, _, _, err := c.JobReport(id)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []*sde.Report
	for _, sh := range report.Shards {
		leaves = append(leaves, sh.Report)
	}
	if st.Stats == nil || *st.Stats != report.Stats() {
		t.Errorf("job status stats = %v, want the assembled report's sum", st.Stats)
	}
	return st, c, leaves
}

// TestLayersSurviveEveryRunPath: for each layer, on and off, the layer's
// own counter is zero exactly when the scenario switched the layer off —
// under RunScenario, the in-process shard pool, a single work lease, and on
// every leaf of the report a coordinator assembles from what two workers
// shipped.
func TestLayersSurviveEveryRunPath(t *testing.T) {
	collect := testSpec
	collectCOB := testSpec
	collectCOB.Algorithm = "cob"
	threshold := sde.ScenarioSpec{Workload: "threshold", Topology: "line:4"}

	layers := []struct {
		name  string
		spec  sde.ScenarioSpec
		set   func(l *sde.Layers, on bool)
		with  func(s sde.Scenario, on bool) sde.Scenario
		count func(r *sde.Report) int64
	}{
		{"compile", collect,
			func(l *sde.Layers, on bool) { l.NoCompile = !on },
			func(s sde.Scenario, on bool) sde.Scenario {
				if !on {
					s = s.WithoutCompiledIR()
				}
				return s
			},
			func(r *sde.Report) int64 { return int64(r.VMStats().FastBlocks) }},
		// COB frontiers are sliced per dscenario row, unlike COW/SDS ones.
		{"compile-cob", collectCOB,
			func(l *sde.Layers, on bool) { l.NoCompile = !on },
			func(s sde.Scenario, on bool) sde.Scenario {
				if !on {
					s = s.WithoutCompiledIR()
				}
				return s
			},
			func(r *sde.Report) int64 { return int64(r.VMStats().FastBlocks) }},
		{"speculate", threshold,
			func(l *sde.Layers, on bool) { l.NoSpeculate = !on },
			func(s sde.Scenario, on bool) sde.Scenario {
				if !on {
					s = s.WithoutSpeculation()
				}
				return s
			},
			func(r *sde.Report) int64 { return r.SpecStats().Submitted }},
	}
	for _, layer := range layers {
		for _, on := range []bool{true, false} {
			layer, on := layer, on
			t.Run(fmt.Sprintf("%s=%v", layer.name, on), func(t *testing.T) {
				spec := layer.spec
				base, err := spec.Scenario()
				if err != nil {
					t.Fatal(err)
				}
				s := layer.with(base, on)
				check := func(path string, n int64) {
					t.Helper()
					if (n != 0) != on {
						t.Errorf("%s: %s counter = %d with the layer on=%v", path, layer.name, n, on)
					}
				}

				plain, err := sde.RunScenario(s)
				if err != nil {
					t.Fatal(err)
				}
				check("RunScenario", layer.count(plain))

				sharded, err := sde.RunScenarioShardedWith(s, sde.ShardConfig{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				check("RunScenarioShardedWith", layer.count(sharded.Shards[0].Report))

				out, err := sde.RunShardLease(s, sde.ShardItem{}, sde.LeaseOptions{CheckpointDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				check("RunShardLease", layer.count(out.Report))

				layer.set(&spec.Layers, on)
				_, _, leaves := runFleetJob(t, spec, JobOptions{ShardBits: 1})
				if len(leaves) < 2 && base.MaxShardBits() > 0 {
					t.Fatalf("fleet report has %d leaves, want one per bit shard", len(leaves))
				}
				for _, r := range leaves {
					check("fleet leaf", layer.count(r))
				}
			})
		}
	}
}

// TestServiceJobLayers: a job's layer set comes from its spec and from
// nowhere else — a spec that turns the compiled fast path or speculation
// off reaches every lease of a two-worker fleet (the layers' counters on
// the job report's leaves say so), the fleet's digest equals the
// in-process run of spec.Scenario() at the same partition, and the HTTP job
// status echoes the resolved layers.
func TestServiceJobLayers(t *testing.T) {
	interpretedCOB := testSpec
	interpretedCOB.Algorithm = "cob"
	interpretedCOB.Layers = sde.Layers{NoCompile: true, NoSpeculate: true}
	// The workload that queries the solver; it has no drop nodes to shard on.
	syncSDS := sde.ScenarioSpec{Workload: "threshold", Topology: "line:4"}
	syncSDS.Layers = sde.Layers{NoSpeculate: true}

	for _, tc := range []struct {
		name string
		spec sde.ScenarioSpec
		bits int
		held func(r *sde.Report) bool // the leaf ran with the layers the spec chose
	}{
		{"sds-no-speculate", syncSDS, 0, func(r *sde.Report) bool {
			return r.SolverStats().Queries != 0 && r.SpecStats().Submitted == 0
		}},
		{"cob-no-compile", interpretedCOB, 2, func(r *sde.Report) bool {
			vs := r.VMStats()
			return vs.Instructions != 0 && vs.FastBlocks == 0
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			st, c, leaves := runFleetJob(t, tc.spec, JobOptions{ShardBits: tc.bits, TestCases: 8})
			if want := oracleDigest(t, tc.spec, tc.bits, 8); st.Digest != want {
				t.Errorf("fleet digest %s != in-process digest %s at the same partition and layers", st.Digest, want)
			}
			if want := 1 << tc.bits; len(leaves) != want {
				t.Errorf("report has %d leaves, want the %d bit shards", len(leaves), want)
			}
			for _, r := range leaves {
				if !tc.held(r) {
					t.Error("a leaf ran with other layers than the job's spec chose")
				}
				if n := r.SpecStats().Submitted; n != 0 {
					t.Errorf("a leaf speculated (%d submissions) in a no-speculate job", n)
				}
			}

			srv := httptest.NewServer(c.HTTPHandler())
			defer srv.Close()
			resp, err := http.Get(srv.URL + "/api/v1/jobs/" + st.ID)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var echoed struct {
				Spec struct {
					Layers string `json:"layers"`
				} `json:"spec"`
				Stats *sde.RunStats `json:"stats"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&echoed); err != nil {
				t.Fatal(err)
			}
			if want := tc.spec.Layers.String(); echoed.Spec.Layers != want {
				t.Errorf("job status echoes layers %q, want the resolved set %q", echoed.Spec.Layers, want)
			}
			if echoed.Stats == nil || *echoed.Stats != *st.Stats {
				t.Errorf("HTTP job status stats = %v, want %v", echoed.Stats, st.Stats)
			}
		})
	}
}

package sim_test

// The counters are the run's, not the process's: a snapshot carries them,
// a resumed engine reports them plus its own, and the work a crash lost —
// done after the checkpoint it resumes from — is done again and counted
// once.

import (
	"reflect"
	"testing"

	"sde/internal/core"
	"sde/internal/metrics"
	"sde/internal/sim"
	"sde/internal/snap"
)

// TestStatsSurviveResume kills a checkpointed run at three points — early,
// in the middle and late, each a few events past an exact-interval
// checkpoint — resumes it, and requires the deterministic counters of the
// report to equal the uninterrupted run's field for field. Speculation is
// off: with it the solver's counters depend on worker timing. Resuming the
// finished checkpoint the resumed run leaves then replays nothing and
// makes no solver call: its Solver part is that run's, whole.
func TestStatsSurviveResume(t *testing.T) {
	const every = 8
	for _, tc := range []struct {
		name string
		cfg  sim.Config
		// det projects the counters that are a function of the exploration.
		det func(metrics.RunStats) any
	}{
		{"sds", collectConfig(t, core.SDSAlgorithm), func(st metrics.RunStats) any {
			return []any{st.VM, st.Solver.Queries}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := withoutSpeculation(tc.cfg)
			ref := runCfg(t, cfg)
			if ref.Events < 8*every {
				t.Fatalf("the run is %d events long; too short for three crash points", ref.Events)
			}
			t.Logf("%d events:\n%s", ref.Events, ref.Stats)
			for _, at := range []uint64{every, ref.Events / 2 / every * every, (ref.Events - 1) / every * every} {
				cfg := cfg
				cfg.CheckpointDir = t.TempDir()
				cfg.CheckpointEvery = every
				eng, err := sim.NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The checkpoint at `at` events is on disk; three more
				// events are work the crash loses.
				for i := uint64(0); i < at+3 && eng.Step(); i++ {
				}
				data, err := snap.LoadBytes(cfg.CheckpointDir)
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := sim.ResumeEngine(cfg, data)
				if err != nil {
					t.Fatal(err)
				}
				res, err := resumed.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := tc.det(res.Stats), tc.det(ref.Stats); !reflect.DeepEqual(got, want) {
					t.Errorf("killed after the checkpoint at %d of %d events:\n resumed %+v\n   whole %+v", at, ref.Events, got, want)
				}
				if want := int(ref.Events / every); res.Stats.Checkpoint.Written < want {
					t.Errorf("killed at %d: %d checkpoints counted, the run crossed %d boundaries", at, res.Stats.Checkpoint.Written, want)
				}
				if data, err = snap.LoadBytes(cfg.CheckpointDir); err != nil {
					t.Fatal(err)
				}
				finished, err := sim.ResumeEngine(cfg, data)
				if err != nil {
					t.Fatal(err)
				}
				again, err := finished.Run()
				if err != nil {
					t.Fatal(err)
				}
				if again.Events != res.Events || again.Stats.Solver != res.Stats.Solver {
					t.Errorf("killed at %d: resuming the finished checkpoint replayed %d events and reports\n%+v, the run that wrote it\n%+v",
						at, again.Events-res.Events, again.Stats.Solver, res.Stats.Solver)
				}
			}
		})
	}
}

package sim_test

// The cost-paced checkpoint schedule (Config.CheckpointEvery == 0) against
// a model clock: which grid boundaries are cut, what the journal says they
// cost, that nothing is cut under the floor, and that an explicit interval,
// a short run and a suspension are untouched by pacing. Kill-and-resume at
// the default schedule is at the end.

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"sde/internal/core"
	"sde/internal/rime"
	"sde/internal/sim"
	"sde/internal/snap"
)

// pacedConfig is a 4x4 grid collect with four packets: 1 500 to 3 200
// events depending on the algorithm, so a run crosses 6 to 12 boundaries
// of the checkpoint grid.
func pacedConfig(t *testing.T, algo core.Algorithm) sim.Config {
	t.Helper()
	prog, err := rime.CollectProgram()
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewGrid(4, 4)
	route := g.StaircaseRoute(15, 0)
	cc := rime.CollectConfig{
		Source:   route[0],
		Sink:     route[len(route)-1],
		Route:    route,
		Interval: 10,
		Packets:  4,
	}
	nodeInit, err := cc.NodeInit(g.K())
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Topo:      g,
		Prog:      prog,
		Algorithm: algo,
		Horizon:   240,
		NodeInit:  nodeInit,
		Failures:  sim.FailurePlan{DropFirst: sim.NodeSet(route)},
	}
}

// journalLine is one parsed line of a checkpoint journal.
type journalLine struct {
	events uint64
	states int
	cost   time.Duration
}

var journalRE = regexp.MustCompile(`events=(\d+) clock=\d+ states=(\d+) bytes=\d+ cost=(\S+)$`)

func readJournal(t *testing.T, dir string) []journalLine {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, snap.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	var out []journalLine
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		m := journalRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed journal line: %q", line)
		}
		ev, _ := strconv.ParseUint(m[1], 10, 64)
		st, _ := strconv.Atoi(m[2])
		cost, err := time.ParseDuration(m[3])
		if err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		out = append(out, journalLine{events: ev, states: st, cost: cost})
	}
	return out
}

func TestCheckpointPacing(t *testing.T) {
	// At slowEvent one grid step of exploration (25.6ms) is longer than
	// CheckpointPace floors (16ms), so the first boundary is due like any
	// later one; at fastEvent it takes seven.
	const (
		slowEvent = 100 * time.Microsecond
		fastEvent = 10 * time.Microsecond
		gridStep  = sim.CheckpointGrid * slowEvent
	)
	flat := func(d time.Duration) func(int) time.Duration {
		return func(int) time.Duration { return d }
	}
	cases := []struct {
		name     string
		small    bool          // the 3x3 two-packet run, shorter than one grid step
		perEvent time.Duration // 0 = slowEvent
		every    int
		budget   uint64
		cost     func(states int) time.Duration
		// check, when non-nil, asserts what the case adds to the common
		// checks below; periodic is the journal without its last line.
		check func(t *testing.T, res *sim.Result, periodic []journalLine)
	}{
		{
			name: "cheap checkpoints are cut at every boundary",
			cost: flat(gridStep / sim.CheckpointPace),
			check: func(t *testing.T, res *sim.Result, periodic []journalLine) {
				if want := int(res.Events / sim.CheckpointGrid); len(periodic) != want || res.Stats.Checkpoint.Skipped != 0 {
					t.Errorf("%d periodic checkpoints, %d boundaries skipped; want %d and 0",
						len(periodic), res.Stats.Checkpoint.Skipped, want)
				}
			},
		},
		{
			// 2.56ms of exploration per grid step: the floor holds the first
			// checkpoint back to the seventh boundary (17.92ms >= 16ms), and
			// the measured cost — an eighth of a step — every one after it.
			name:     "cheap checkpoints wait for the floor, then are cut at every boundary",
			perEvent: fastEvent,
			cost:     flat(sim.CheckpointGrid * fastEvent / sim.CheckpointPace),
			check: func(t *testing.T, res *sim.Result, periodic []journalLine) {
				const first = 7
				if res.Events < (first+1)*sim.CheckpointGrid {
					if len(periodic) != 0 {
						t.Errorf("%d periodic checkpoints in a run of %d events, under the floor", len(periodic), res.Events)
					}
					return
				}
				for i, l := range periodic {
					if want := uint64(first+i) * sim.CheckpointGrid; l.events != want {
						t.Errorf("periodic checkpoint %d at %d events, want %d", i, l.events, want)
					}
				}
				if res.Stats.Checkpoint.Skipped != first-1 {
					t.Errorf("%d boundaries skipped, want the %d under the floor", res.Stats.Checkpoint.Skipped, first-1)
				}
			},
		},
		{
			name: "expensive checkpoints are thinned",
			cost: flat(gridStep / 2),
			check: func(t *testing.T, res *sim.Result, periodic []journalLine) {
				// Half a grid step per checkpoint: eight times that is four
				// steps of exploration, so boundaries 1, 5, 9, ... are cut.
				for i, l := range periodic {
					if want := uint64(1+4*i) * sim.CheckpointGrid; l.events != want {
						t.Errorf("periodic checkpoint %d at %d events, want %d", i, l.events, want)
					}
				}
				if res.Stats.Checkpoint.Skipped == 0 {
					t.Error("no boundary skipped")
				}
			},
		},
		{
			name: "cost growing with the frontier",
			cost: func(states int) time.Duration { return time.Duration(states) * 20 * time.Microsecond },
		},
		{
			name:  "an explicit interval is exact whatever it costs",
			every: 100,
			cost:  flat(100 * gridStep),
			check: func(t *testing.T, res *sim.Result, periodic []journalLine) {
				if want := int(res.Events / 100); len(periodic) != want || res.Stats.Checkpoint.Skipped != 0 {
					t.Fatalf("%d periodic checkpoints, %d skipped; want %d and 0",
						len(periodic), res.Stats.Checkpoint.Skipped, want)
				}
				for i, l := range periodic {
					if l.events != uint64(100*(i+1)) {
						t.Errorf("periodic checkpoint %d at %d events", i, l.events)
					}
				}
			},
		},
		{
			name:  "a run shorter than one grid step writes its final checkpoint",
			small: true,
			cost:  flat(100 * gridStep),
			check: func(t *testing.T, res *sim.Result, periodic []journalLine) {
				if res.Events >= sim.CheckpointGrid || len(periodic) != 0 {
					t.Errorf("%d events, %d periodic checkpoints", res.Events, len(periodic))
				}
			},
		},
		{
			name:   "a suspended run writes its frontier",
			budget: sim.CheckpointGrid + 44,
			cost:   flat(100 * gridStep),
			check: func(t *testing.T, res *sim.Result, periodic []journalLine) {
				if !res.Suspended || res.Events != sim.CheckpointGrid+44 {
					t.Fatalf("suspended=%v at %d events", res.Suspended, res.Events)
				}
				if len(periodic) != 1 {
					t.Errorf("%d periodic checkpoints before the suspension, want the first boundary's", len(periodic))
				}
			},
		},
	}
	for _, tc := range cases {
		for _, algo := range allAlgorithms {
			t.Run(tc.name+"/"+algo.String(), func(t *testing.T) {
				cfg := pacedConfig(t, algo)
				if tc.small {
					cfg = collectConfig(t, algo)
				}
				cfg.CheckpointDir = t.TempDir()
				cfg.CheckpointEvery = tc.every
				cfg.EventBudget = tc.budget
				eng, err := sim.NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				perEvent := tc.perEvent
				if perEvent == 0 {
					perEvent = slowEvent
				}
				eng.SetModelClock(perEvent, tc.cost)
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}

				// The journal ends with the final (or suspension) checkpoint,
				// which is the snapshot on disk; the lines before it are the
				// periodic ones.
				lines := readJournal(t, cfg.CheckpointDir)
				final := lines[len(lines)-1]
				periodic := lines[:len(lines)-1]
				if final.events != res.Events {
					t.Fatalf("last journal line at %d events, run ended at %d", final.events, res.Events)
				}
				sp, err := snap.Load(cfg.CheckpointDir, eng.Ctx().Exprs)
				if err != nil {
					t.Fatal(err)
				}
				if sp.Events != res.Events {
					t.Fatalf("snapshot on disk at %d events, run ended at %d", sp.Events, res.Events)
				}
				if res.Stats.Checkpoint.Written != len(lines) {
					t.Errorf("Stats.Checkpoint.Written = %d, journal has %d lines", res.Stats.Checkpoint.Written, len(lines))
				}
				var sum time.Duration
				for _, l := range lines {
					if want := tc.cost(l.states); l.cost != want {
						t.Errorf("journal cost at %d events = %v, the clock charged %v", l.events, l.cost, want)
					}
					sum += l.cost
				}
				if res.Stats.Checkpoint.Wall != sum {
					t.Errorf("Stats.Checkpoint.Wall = %v, journal costs sum to %v", res.Stats.Checkpoint.Wall, sum)
				}
				if tc.every == 0 {
					checkPaced(t, res, periodic, perEvent)
				}
				if tc.check != nil {
					tc.check(t, res, periodic)
				}
			})
		}
	}
}

// checkPaced asserts the pacing rule on a paced run's periodic journal
// lines: the first checkpoint is cut at the first boundary CheckpointPace
// floors into the run, every later one waits until the exploration since
// the previous one has taken CheckpointPace times its cost and is then cut
// at the first boundary, every boundary is either cut or counted as
// skipped, and the budget follows — all periodic checkpoints but the last
// cost at most 1/CheckpointPace of the time spent exploring.
func checkPaced(t *testing.T, res *sim.Result, periodic []journalLine, perEvent time.Duration) {
	t.Helper()
	boundaries := int(res.Events / sim.CheckpointGrid)
	if res.Events%sim.CheckpointGrid == 0 && !res.Suspended {
		// The run ended on a boundary: if it was cut there, that line is
		// the journal's last and not in periodic.
		boundaries--
	}
	if got := len(periodic) + res.Stats.Checkpoint.Skipped; got != max(boundaries, 0) {
		t.Errorf("%d cut + %d skipped != %d boundaries", len(periodic), res.Stats.Checkpoint.Skipped, boundaries)
	}
	first := 1 // the first boundary at or past the floor
	for time.Duration(first*sim.CheckpointGrid)*perEvent < sim.CheckpointPace*sim.CheckpointFloor {
		first++
	}
	if boundaries < first {
		if len(periodic) != 0 {
			t.Errorf("periodic checkpoints %v in a run that never got past the floor", periodic)
		}
		return
	}
	if len(periodic) == 0 || periodic[0].events != uint64(first*sim.CheckpointGrid) {
		t.Fatalf("first checkpoint not at boundary %d: periodic checkpoints %v", first, periodic)
	}
	var paid time.Duration
	for i := 1; i < len(periodic); i++ {
		prev, cur := periodic[i-1], periodic[i]
		if cur.events%sim.CheckpointGrid != 0 {
			t.Errorf("periodic checkpoint off the grid at %d events", cur.events)
		}
		explored := time.Duration(cur.events-prev.events) * perEvent
		if explored < sim.CheckpointPace*prev.cost {
			t.Errorf("checkpoint at %d events after %v of exploration; the one before cost %v",
				cur.events, explored, prev.cost)
		}
		if explored-sim.CheckpointGrid*perEvent >= sim.CheckpointPace*prev.cost {
			t.Errorf("checkpoint at %d events was due a boundary earlier", cur.events)
		}
		paid += prev.cost
	}
	explored := time.Duration(res.Events) * perEvent
	if sim.CheckpointPace*paid > explored {
		t.Errorf("periodic checkpoints but the last cost %v of %v explored", paid, explored)
	}
}

// TestShortLeaseWritesNothing: a lease's run (RunItem that ships) that
// ends inside CheckpointPace floors of exploration passes every grid
// boundary over, leaves its directory without a checkpoint or a journal,
// and hands its outcome back in memory — finished or suspended.
func TestShortLeaseWritesNothing(t *testing.T) {
	for _, algo := range allAlgorithms {
		for _, budget := range []uint64{0, 3*sim.CheckpointGrid + 44} {
			name := algo.String() + "/finished"
			if budget != 0 {
				name = algo.String() + "/suspended"
			}
			t.Run(name, func(t *testing.T) {
				cfg := pacedConfig(t, algo)
				cfg.CheckpointDir = filepath.Join(t.TempDir(), "lease")
				cfg.EventBudget = budget
				eng, err := sim.NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// 3 200 events at 1us each: the whole run is a fifth of the floor.
				eng.SetModelClock(time.Microsecond, func(int) time.Duration { return time.Millisecond })
				res, final, err := eng.RunItem(true)
				if err != nil {
					t.Fatal(err)
				}
				if res.Suspended != (budget != 0) {
					t.Fatalf("suspended=%v with budget %d", res.Suspended, budget)
				}
				if _, err := os.Stat(cfg.CheckpointDir); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("lease directory exists after a run under the floor (stat: %v)", err)
				}
				ck := res.Stats.Checkpoint
				if want := int(res.Events / sim.CheckpointGrid); ck.Written != 0 || ck.Skipped != want {
					t.Errorf("%d checkpoints written, %d boundaries skipped; want 0 and %d", ck.Written, ck.Skipped, want)
				}
				sp, err := snap.Decode(final, eng.Ctx().Exprs)
				if err != nil {
					t.Fatalf("shipped snapshot: %v", err)
				}
				if sp.Events != res.Events {
					t.Errorf("shipped snapshot at %d events, run ended at %d", sp.Events, res.Events)
				}
			})
		}
	}
}

// TestKillAndResumeDefaultSchedule: a run at the default (paced) schedule
// is abandoned — the crash — before its first checkpoint and after it (on a
// model clock slow enough that the first grid boundary is past the floor).
// Resume-or-start from the directory then starts fresh or resumes, and
// either way ends exactly where the uninterrupted run does.
func TestKillAndResumeDefaultSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery sweep; CI runs it in a dedicated race step")
	}
	for _, algo := range allAlgorithms {
		ref := runToCompletion(t, pacedConfig(t, algo))
		for _, killAt := range []int{sim.CheckpointGrid - 100, 3*sim.CheckpointGrid - 100} {
			t.Run(algo.String()+"/kill at "+strconv.Itoa(killAt), func(t *testing.T) {
				cfg := pacedConfig(t, algo)
				cfg.CheckpointDir = t.TempDir()
				eng, err := sim.NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng.SetModelClock(100*time.Microsecond, func(int) time.Duration { return time.Millisecond })
				for i := 0; i < killAt; i++ {
					if !eng.Step() {
						t.Fatalf("run ended after %d events, before the kill", i)
					}
				}

				var resumed *sim.Engine
				data, err := snap.LoadBytes(cfg.CheckpointDir)
				switch {
				case errors.Is(err, snap.ErrNoCheckpoint):
					if killAt >= sim.CheckpointGrid {
						t.Fatal("no checkpoint on disk after the first grid boundary")
					}
					resumed, err = sim.NewEngine(cfg)
				case err == nil:
					if killAt < sim.CheckpointGrid {
						t.Fatal("checkpoint on disk before the first grid boundary")
					}
					resumed, err = sim.ResumeEngine(cfg, data)
				}
				if err != nil {
					t.Fatal(err)
				}
				res, err := resumed.Run()
				if err != nil {
					t.Fatal(err)
				}
				if want := killAt >= sim.CheckpointGrid; res.Resumed != want {
					t.Errorf("Resumed = %v, want %v", res.Resumed, want)
				}
				requireSameRun(t, res, ref)
			})
		}
	}
}

package sde

import (
	"fmt"
	"math/big"
	"path/filepath"
	"strings"
	"time"

	"sde/internal/metrics"
)

// EvalRow is one line of the paper's evaluation: one algorithm on one
// scenario (Table I rows; Figure 10 curves via Samples).
type EvalRow struct {
	Algorithm   Algorithm
	Nodes       int
	Runtime     time.Duration
	States      int
	MemBytes    int64
	PeakMem     int64
	DScenarios  *big.Int
	Instrs      uint64
	Aborted     bool
	AbortReason string
	Samples     []Sample
}

// EvalOptions parameterises an evaluation sweep.
type EvalOptions struct {
	// Packets per run (default 10, the paper's one-per-second for 10 s).
	Packets uint32
	// DropNodes selects the symbolic-drop node set (default DropRoute).
	DropNodes DropSelection
	// MaxDropNodes caps the armed node count (see GridCollectOptions).
	MaxDropNodes int
	// Caps per algorithm; a missing entry means uncapped. The paper
	// capped COB at ~40 GB of RAM.
	Caps map[Algorithm]Caps
	// SampleEvery takes a metrics sample every n events (default 64).
	SampleEvery int
	// Algorithms to run (default all three, in the paper's order).
	Algorithms []Algorithm
	// CheckpointDir, when non-empty, makes the sweep durable: each run
	// checkpoints into its own subdirectory (grid<dim>-<algo>) and a
	// rerun resumes finished or interrupted runs instead of repeating
	// them.
	CheckpointDir string
}

// DefaultEvalOptions returns the calibrated evaluation configuration for
// one of the paper's grid sizes (5, 7, or 10), scaled to a single-core
// laptop budget while preserving the paper's result shape:
//
//   - 25 nodes: drops on the data path only; every algorithm finishes
//     (Figure 10a/b shows COB finishing on the smallest scenario).
//   - 49 and 100 nodes: drops on the data path and its neighbours (the
//     paper's full §IV-A setup); COB hits its state cap and is reported
//     as aborted, exactly like the paper's Table I run, while COW and SDS
//     finish.
//
// The source emits 3 packets instead of the paper's 10 so a full sweep
// completes in seconds-to-minutes on one core; pass your own EvalOptions
// (e.g. Packets: 10 and larger caps) for paper-scale runs.
func DefaultEvalOptions(dim int) EvalOptions {
	opts := EvalOptions{
		Packets:     3,
		SampleEvery: 32,
		Caps: map[Algorithm]Caps{
			COB: {MaxWall: 10 * time.Minute},
			COW: {MaxWall: 10 * time.Minute},
			SDS: {MaxWall: 10 * time.Minute},
		},
	}
	switch {
	case dim <= 5:
		opts.DropNodes = DropRoute
	case dim <= 7:
		opts.DropNodes = DropRouteAndNeighbors
		opts.Caps[COB] = Caps{MaxStates: 100000, MaxWall: 10 * time.Minute}
	default:
		opts.DropNodes = DropRouteAndNeighbors
		opts.Caps[COB] = Caps{MaxStates: 500000, MaxWall: 10 * time.Minute}
	}
	return opts
}

// RunGridEvaluation runs the paper's grid scenario at the given dimension
// once per algorithm and returns one row each — the data behind Table I
// (dim 10) and Figure 10 (dims 5, 7, 10).
func RunGridEvaluation(dim int, opts EvalOptions) ([]EvalRow, error) {
	algos := opts.Algorithms
	if len(algos) == 0 {
		algos = Algorithms
	}
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 64
	}
	rows := make([]EvalRow, 0, len(algos))
	for _, algo := range algos {
		scenario, err := GridCollectScenario(GridCollectOptions{
			Dim:          dim,
			Algorithm:    algo,
			Packets:      opts.Packets,
			DropNodes:    opts.DropNodes,
			MaxDropNodes: opts.MaxDropNodes,
			Caps:         opts.Caps[algo],
		})
		if err != nil {
			return nil, err
		}
		scenario = scenario.WithSampling(opts.SampleEvery)
		var report *Report
		if opts.CheckpointDir != "" {
			dir := filepath.Join(opts.CheckpointDir, fmt.Sprintf("grid%d-%s", dim, algo))
			report, err = Resume(scenario, dir)
		} else {
			report, err = RunScenario(scenario)
		}
		if err != nil {
			return nil, err
		}
		aborted, reason := report.Aborted()
		rows = append(rows, EvalRow{
			Algorithm:   algo,
			Nodes:       dim * dim,
			Runtime:     report.Wall(),
			States:      report.States(),
			MemBytes:    report.MemBytes(),
			PeakMem:     report.PeakMemBytes(),
			DScenarios:  report.DScenarios(),
			Instrs:      report.Instructions(),
			Aborted:     aborted,
			AbortReason: reason,
			Samples:     report.Samples(),
		})
	}
	return rows, nil
}

// FormatTable renders rows in the layout of the paper's Table I.
func FormatTable(title string, rows []EvalRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-28s %-16s %12s %14s %14s\n",
		"State mapping algorithm", "Runtime", "States", "RAM (modeled)", "DScenarios")
	names := map[Algorithm]string{
		COB: "Copy On Branch (COB)",
		COW: "Copy On Write (COW)",
		SDS: "Super DStates (SDS)",
	}
	for _, r := range rows {
		runtime := r.Runtime.Round(time.Millisecond).String()
		if r.Aborted {
			runtime += " (aborted)"
		}
		fmt.Fprintf(&sb, "%-28s %-16s %12d %14s %14s\n",
			names[r.Algorithm], runtime, r.States,
			metrics.FormatBytes(r.MemBytes), r.DScenarios.String())
	}
	return sb.String()
}

// FigureSeries renders the Figure 10 data for one grid dimension: two
// blocks (state growth, memory growth) as CSV over wall time, one series
// per algorithm, plus a crude log-scale terminal chart.
func FigureSeries(dim int, rows []EvalRow) string {
	var sb strings.Builder
	bySeries := map[string][]Sample{}
	for _, r := range rows {
		bySeries[r.Algorithm.String()] = r.Samples
	}
	fmt.Fprintf(&sb, "# Figure 10 (%d nodes): state growth over time\n", dim*dim)
	sb.WriteString(metrics.AsciiChart("states (log scale)", bySeries,
		func(s Sample) float64 { return float64(s.States) }, 60))
	fmt.Fprintf(&sb, "\n# Figure 10 (%d nodes): memory growth over time\n", dim*dim)
	sb.WriteString(metrics.AsciiChart("modeled RAM (log scale)", bySeries,
		func(s Sample) float64 { return float64(s.MemBytes) }, 60))
	sb.WriteString("\n# CSV series (downsampled)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "## %s, final: states=%d mem=%s", r.Algorithm, r.States,
			metrics.FormatBytes(r.MemBytes))
		if r.Aborted {
			fmt.Fprintf(&sb, " [%s aborted]", r.Algorithm)
		}
		sb.WriteByte('\n')
		sb.WriteString("wall_ms,states,mem_bytes\n")
		var series metrics.Series
		for _, s := range r.Samples {
			series.Add(s)
		}
		for _, s := range series.Downsample(40) {
			fmt.Fprintf(&sb, "%.1f,%d,%d\n",
				float64(s.Wall.Microseconds())/1000, s.States, s.MemBytes)
		}
	}
	return sb.String()
}

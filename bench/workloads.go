package main

import (
	"fmt"

	"sde"
)

// row is one scenario of a workload: one algorithm on one input.
type row struct {
	name     string
	algo     sde.Algorithm
	scenario sde.Scenario
	// spec is what a fleet job carries; nil for a program built here,
	// which sde.ScenarioSpec cannot describe.
	spec *sde.ScenarioSpec
	// capAbort marks the row that is expected to stop at its state cap,
	// like the paper's aborted COB measurement.
	capAbort bool
}

// partition is the shard partition of a workload's sharded and fleet row.
// It is part of what the digest is defined over, so both modes use it.
type partition struct {
	bits    int
	horizon uint64
	fanout  int
}

// workload is one set of inputs the benchmark runs. Rows are built from
// the seed; only reconcile has seed-dependent inputs, the other workloads
// use the seed for the order in which rows run.
type workload struct {
	name  string
	why   string
	build func(seed int64, quick bool) ([]row, error)
	// shardRow runs sharded in-process and through the fleet, ckptRow
	// through sde.Checkpoint and sde.Resume, toggleRow with one default
	// layer switched off (or merging switched on) and reduceRow with
	// reduction switched on.
	shardRow, ckptRow, toggleRow, reduceRow string
	part, quickPart                         partition
	// shardReps and resumeReps repeat a mode that is too short to time
	// once; the sample is the median.
	shardReps, resumeReps int
}

// collectRowNames are the rows of the collect workload, in catalogue
// order; each has a sim.row.<row>_s per-layer metric.
var collectRowNames = []string{
	"g25-cob", "g25-cow", "g25-sds",
	"g49-cob", "g49-cow", "g49-sds",
	"g100-sds",
}

var workloads = []workload{
	{
		name: "collect",
		why:  "paper Table I / Fig. 10 anchor: grid collect on 25/49/100 nodes; mapper, state forks, modeled RAM and GC do the work, vm is light, solver idle",
		build: func(_ int64, quick bool) ([]row, error) {
			// 25 nodes: the paper's one-packet-per-second traffic with
			// drops on the route, every algorithm finishes. 49 nodes:
			// DefaultEvalOptions(7) (3 packets, route and neighbours),
			// with COB's cap lowered so the aborted row costs a tenth of
			// a second. 100 nodes: SDS on the route, the only algorithm
			// that finishes there.
			g25, g49, g100, cobCap := uint32(5), uint32(3), uint32(2), 30000
			if quick {
				g25, g49, g100, cobCap = 3, 2, 2, 5000
			}
			rows, err := specRows("g25", sde.ScenarioSpec{
				Workload: "collect", Topology: "grid:5", Packets: g25, Drops: "route"},
				0, 0, sde.Algorithms...)
			if err != nil {
				return nil, err
			}
			g49rows, err := specRows("g49", sde.ScenarioSpec{
				Workload: "collect", Topology: "grid:7", Packets: g49, Drops: "route+neighbors"},
				sde.DefaultEvalOptions(7).SampleEvery, cobCap, sde.Algorithms...)
			if err != nil {
				return nil, err
			}
			g100rows, err := specRows("g100", sde.ScenarioSpec{
				Workload: "collect", Topology: "grid:10", Packets: g100, Drops: "route"},
				sde.DefaultEvalOptions(10).SampleEvery, 0, sde.SDS)
			if err != nil {
				return nil, err
			}
			return append(append(rows, g49rows...), g100rows...), nil
		},
		shardRow: "g25-sds", ckptRow: "g49-sds", toggleRow: "g25-sds", reduceRow: "g25-cob",
		part: partition{bits: 1}, quickPart: partition{bits: 1},
		shardReps: 8, resumeReps: 8,
	},
	{
		name: "reconcile",
		why:  "replicated-register convergence check: symbolic compares fork and query the solver, so solver, qopt, speculation and model queries do the work and the mapper little",
		build: func(seed int64, quick bool) ([]row, error) {
			opts := ReconcileOptions{Replicas: 3, Rounds: 2, Writes: 2, Writers: 2, Seed: seed}
			if quick {
				opts.Writers = 1
			}
			var rows []row
			for _, a := range sde.Algorithms {
				opts.Algorithm = a
				s, _, err := ReconcileScenario(opts)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row{name: "rr-" + algoName(a), algo: a, scenario: s})
			}
			return rows, nil
		},
		shardRow: "rr-sds", ckptRow: "rr-sds", toggleRow: "rr-sds", reduceRow: "rr-cob",
		part: partition{bits: 2}, quickPart: partition{bits: 2},
		shardReps: 1, resumeReps: 12,
	},
	{
		name: "deepchain",
		why:  "synthetic: vm-bound relay line (compiled fast path vs interpreter), few states, no queries; its distributed run is made of suspensions and continuation leases",
		build: func(_ int64, quick bool) ([]row, error) {
			spec := sde.ScenarioSpec{Workload: "deepchain", Topology: "line:7", Iters: 128}
			if quick {
				spec = sde.ScenarioSpec{Workload: "deepchain", Topology: "line:4", Iters: 8, Ticks: 8}
			}
			return specRows("dc", spec, 0, 0, sde.Algorithms...)
		},
		shardRow: "dc-cob", ckptRow: "dc-sds", toggleRow: "dc-sds", reduceRow: "dc-cob",
		// Zero shardable bits: continuations are the only partition.
		part: partition{horizon: 400, fanout: 4}, quickPart: partition{horizon: 40, fanout: 4},
		shardReps: 1, resumeReps: 512,
	},
	{
		name: "discovery",
		why:  "flooding class (paper IV-C): every node sends and almost none is a bystander, so target forks dominate and COW~COB; a mapper change that taxes the send path loses here",
		build: func(_ int64, quick bool) ([]row, error) {
			spec := sde.ScenarioSpec{Workload: "discovery", Topology: "grid:3", Packets: 2}
			if quick {
				spec = sde.ScenarioSpec{Workload: "discovery", Topology: "grid:2", Packets: 2}
			}
			return specRows("nd", spec, 0, 0, sde.Algorithms...)
		},
		shardRow: "nd-cow", ckptRow: "nd-sds", toggleRow: "nd-sds", reduceRow: "nd-cob",
		part: partition{bits: 3}, quickPart: partition{bits: 2},
		shardReps: 4, resumeReps: 12,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func algoName(a sde.Algorithm) string {
	switch a {
	case sde.COB:
		return "cob"
	case sde.COW:
		return "cow"
	default:
		return "sds"
	}
}

// specRows builds one row per algorithm of a built-in workload from its
// spec, so that the scenario the library runs and the one a fleet job names
// are the same. cobCap, when non-zero, caps the COB row's states; that row
// is then expected to abort.
func specRows(prefix string, spec sde.ScenarioSpec, sampleEvery, cobCap int, algos ...sde.Algorithm) ([]row, error) {
	var rows []row
	for _, a := range algos {
		spec := spec
		spec.Algorithm = algoName(a)
		capped := a == sde.COB && cobCap > 0
		if capped {
			spec.MaxStates = cobCap
		}
		s, err := spec.Scenario()
		if err != nil {
			return nil, fmt.Errorf("building row %s-%s: %w", prefix, spec.Algorithm, err)
		}
		if sampleEvery > 0 {
			s = s.WithSampling(sampleEvery)
		}
		rows = append(rows, row{name: prefix + "-" + spec.Algorithm, algo: a, scenario: s, spec: &spec, capAbort: capped})
	}
	return rows, nil
}

func findRow(rows []row, name string) *row {
	for i := range rows {
		if rows[i].name == name {
			return &rows[i]
		}
	}
	return nil
}

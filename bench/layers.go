package main

import (
	"bytes"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"sde"
	"sde/internal/expr"
	"sde/internal/qopt"
	"sde/internal/snap"
	"sde/internal/solver"
)

const (
	// tracedRounds rounds run with spans on and under the CPU profile;
	// basePasses untraced plain passes before them give the base of
	// trace_overhead.
	tracedRounds = 2
	basePasses   = 2
)

// tracedResult is what the traced run of a workload produced.
type tracedResult struct {
	metrics map[string]float64
	spans   []span
	profile []byte
}

// traced measures the per-layer metrics of the workload from outside the
// engine: spans around each public call, counters read from the reports at
// the same boundaries, and a CPU profile of the traced rounds split by the
// package of the leaf frame.
func (h *harness) traced() (*tracedResult, error) {
	st, err := h.setup()
	if err != nil {
		return nil, err
	}
	warm := h.round()
	h.replayViolations(warm.pass.runs)
	var base []float64
	for i := 0; i < basePasses; i++ {
		base = append(base, h.plainPass().wall)
	}

	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0 // every metric is reported, applicable or not
	}
	h.tr = newTracer()
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	h.profiling = true
	var rounds []round
	endRoot := h.tr.begin("rounds")
	for i := 0; i < tracedRounds; i++ {
		rd := h.round()
		// The digest is checked once per process; here it is timed.
		m["sde.digest_s"] = h.shardedDigest(rd.shardedReport)
		rounds = append(rounds, rd)
	}
	endRoot()
	pprof.StopCPUProfile()
	h.profiling = false
	runtime.ReadMemStats(&ms1)
	last := rounds[len(rounds)-1]

	var tracedWalls []float64
	for _, rd := range rounds {
		tracedWalls = append(tracedWalls, rd.pass.wall)
	}
	m["trace_overhead"] = median(tracedWalls) / median(base)

	m["sde.build_s"] = st.build
	m["isa.compile_s"] = st.compile
	m["isa.blocks"] = float64(st.blocks)
	m["isa.fast_blocks"] = float64(st.fastBlocks)

	h.passCounters(m, last.pass)
	h.shardCounters(m, last)
	m["snap.checkpoints"] = float64(last.journal)
	m["dist.leases"] = last.fleetStats.leases
	m["dist.cont_leases"] = last.fleetStats.contLeases
	m["dist.requeues"] = last.fleetStats.requeues

	h.inspect(m, last.pass)
	if err := h.leaseLayers(m, last); err != nil {
		return nil, err
	}
	h.toggles(m, last.pass)

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := cpuShares(samples)
	for _, name := range cpuShareModules {
		m[name] = shares[name]
	}
	n := float64(tracedRounds)
	m["runtime.alloc_gib"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 30) / n
	m["runtime.gc_count"] = float64(ms1.NumGC-ms0.NumGC) / n
	return &tracedResult{metrics: m, spans: h.tr.spans, profile: prof.Bytes()}, nil
}

// passCounters reads the counters of a plain pass off its reports.
func (h *harness) passCounters(m map[string]float64, p pass) {
	var explore, tcs float64
	var sv sde.SolverStats
	var barrierNs int64
	var fast, slow uint64
	for _, run := range p.runs {
		if run.report == nil {
			continue
		}
		rep, res := run.report, run.report.Result()
		explore += run.explore
		tcs += run.tcs
		m["trace.testcases"] += float64(run.cases)
		m["vm.instructions"] += float64(rep.Instructions())
		m["sim.events"] += float64(res.Events)
		if ps := float64(res.PeakStates); ps > m["sim.peak_states"] {
			m["sim.peak_states"] = ps
		}
		m["metrics.samples"] += float64(len(rep.Samples()))
		m["core.groups"] += float64(rep.Groups())
		d, _ := new(big.Float).SetInt(rep.DScenarios()).Float64()
		m["core.dscenarios"] += d
		vm := rep.VMStats()
		fast += vm.FastBlocks
		slow += vm.SlowBlocks
		m["vm.folded_instrs"] += float64(vm.FoldedInstrs)
		s := rep.SolverStats()
		sv.Queries += s.Queries
		sv.SATCalls += s.SATCalls
		sv.CacheHits += s.CacheHits
		sv.SubsumptionHits += s.SubsumptionHits
		sv.FastPath += s.FastPath
		sv.Conflicts += s.Conflicts
		sv.Gates += s.Gates
		sv.SlicedQueries += s.SlicedQueries
		sv.RewriteHits += s.RewriteHits
		sv.GatesElided += s.GatesElided
		sp := rep.SpecStats()
		m["spec.submitted"] += float64(sp.Submitted)
		m["spec.solves"] += float64(sp.Solves)
		m["spec.elided"] += float64(sp.Elided)
		m["spec.rewinds"] += float64(sp.Rewinds)
		barrierNs += sp.BarrierWaitNs
		if h.wl.name == "collect" {
			m["sim.row."+run.row.name+"_s"] = run.explore
		}
	}
	m["trace.testcases_s"] = tcs
	m["vm.instr_per_s"] = ratio(m["vm.instructions"], explore)
	m["vm.fast_block_share"] = ratio(float64(fast), float64(fast+slow))
	m["sim.us_per_event"] = ratio(explore*1e6, m["sim.events"])
	m["spec.barrier_wait_share"] = ratio(float64(barrierNs)/1e9, explore)
	q := float64(sv.Queries)
	m["solver.queries"] = q
	m["solver.sat_calls"] = float64(sv.SATCalls)
	m["solver.cache_hit_share"] = ratio(float64(sv.CacheHits), q)
	m["solver.subsumption_hit_share"] = ratio(float64(sv.SubsumptionHits), q)
	m["solver.fast_path_share"] = ratio(float64(sv.FastPath), q)
	m["solver.conflicts"] = float64(sv.Conflicts)
	m["solver.gates"] = float64(sv.Gates)
	m["qopt.sliced_share"] = ratio(float64(sv.SlicedQueries), q)
	m["qopt.rewrite_hits"] = float64(sv.RewriteHits)
	m["qopt.gates_elided"] = float64(sv.GatesElided)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shardCounters reads the scheduler's telemetry off the sharded report and
// the redundant work of the partition: instructions of all leaves over the
// instructions of the row's plain run.
func (h *harness) shardCounters(m map[string]float64, rd round) {
	rep := rd.shardedReport
	if rep == nil {
		return
	}
	m["sde.sched_util"] = rep.Sched.MeanUtilization()
	m["sde.sched_steals"] = float64(rep.Sched.Steals)
	m["sde.shards"] = float64(rep.Sched.Shards)
	m["sde.suspensions"] = float64(rep.Sched.Suspensions)
	var leafInstrs uint64
	for _, sh := range rep.Shards {
		leafInstrs += sh.Report.Instructions()
	}
	m["sde.redundant_work"] = ratio(float64(leafInstrs), float64(h.seen[h.wl.shardRow].Instructions))
}

func reportOf(p pass, name string) *sde.Report {
	for _, run := range p.runs {
		if run.row.name == name {
			return run.report
		}
	}
	return nil
}

// inspect times what the digest does per state on the shard row's plain
// report (explode all dscenarios, fingerprint every state), counts the
// duplicates among the toggle row's states, and replays the toggle row's
// path conditions through a fresh solver and a fresh query optimizer.
func (h *harness) inspect(m map[string]float64, p pass) {
	if rep := reportOf(p, h.wl.shardRow); rep != nil {
		end := h.tr.begin("core.Explode")
		start := time.Now()
		rep.Result().Mapper.Explode(0)
		m["core.explode_s"] = time.Since(start).Seconds()
		end()

		end = h.tr.begin("vm.Fingerprint")
		start = time.Now()
		n := 0
		for _, states := range rep.NodeStates() {
			for _, s := range states {
				s.Fingerprint()
				n++
			}
		}
		m["vm.fingerprint_ns"] = ratio(float64(time.Since(start).Nanoseconds()), float64(n))
		end()
	}
	rep := reportOf(p, h.wl.toggleRow)
	if rep == nil {
		return
	}
	h.attempt()
	dups := rep.DuplicateStates()
	m["core.dup_states"] = float64(dups)
	if dups != 0 {
		h.fail("%s: %d duplicate states under SDS", h.wl.toggleRow, dups)
	}

	// The query stream: every final state's path condition, constraint
	// by constraint, as the prefix-extension queries branches issue.
	var conds [][]*expr.Expr
	for _, states := range rep.NodeStates() {
		for _, s := range states {
			conds = append(conds, s.PathCond())
		}
	}
	queries := 0
	end := h.tr.begin("solver.replay")
	start := time.Now()
	sv := solver.NewWithOptions(solver.Options{Optimizer: qopt.New(rep.Result().Ctx.Exprs)})
	for _, pc := range conds {
		sess := sv.NewSession()
		for i := range pc {
			if _, err := sv.FeasibleWith(sess, pc[:i], pc[i]); err != nil {
				h.fail("solver replay: %v", err)
			}
			queries++
		}
	}
	m["solver.replay_s"] = time.Since(start).Seconds()
	end()
	m["solver.replay_us_per_query"] = ratio(m["solver.replay_s"]*1e6, float64(queries))

	end = h.tr.begin("qopt.replay")
	start = time.Now()
	opt := qopt.New(rep.Result().Ctx.Exprs)
	for _, pc := range conds {
		for i := range pc {
			kept, _ := opt.Slice(pc[:i], pc[i])
			opt.OptimizeSet(append(kept[:len(kept):len(kept)], pc[i]))
		}
	}
	m["qopt.replay_s"] = time.Since(start).Seconds()
	end()
}

// leaseLayers executes the partition lease by lease on one goroutine, the
// way the fleet's workers do between them, and from that derives what the
// fleet added to the work (dist.*), what the snapshots cost (snap.*) and
// what assembling the leaves costs (sde.assemble_s).
func (h *harness) leaseLayers(m map[string]float64, rd round) error {
	r := findRow(h.rows, h.wl.shardRow)
	dir, err := h.tempDir("harvest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	endAll := h.tr.begin("lease harvest")
	defer endAll()
	h.attempt()
	hv, err := harvest(r.scenario, h.part, dir, 1, h.tr)
	if err != nil {
		h.fail("%s lease harvest: %v", r.name, err)
		return nil
	}
	var work float64
	var largest []byte
	for _, run := range hv.runs {
		work += run.wall
		m["dist.result_bytes"] += float64(run.bytes)
	}
	states := 0
	for _, leaf := range hv.leaves {
		m["snap.bytes"] += float64(len(leaf.Snapshot))
		if len(leaf.Snapshot) > len(largest) {
			largest = leaf.Snapshot
		}
	}
	m["dist.overhead_s"] = rd.fleet - work/poolWorkers
	m["dist.worker_busy_share"] = ratio(work, poolWorkers*rd.fleet)

	end := h.tr.begin("sde.AssembleSharded")
	start := time.Now()
	rep, err := sde.AssembleSharded(r.scenario, hv.leaves)
	m["sde.assemble_s"] = time.Since(start).Seconds()
	end()
	if err != nil {
		h.fail("%s assemble: %v", r.name, err)
		return nil
	}
	states = rep.States()
	m["snap.bytes_per_state"] = ratio(m["snap.bytes"], float64(states))
	digest, err := rep.Digest(digestCases)
	if err == nil {
		digest, err = h.comparable(rep, digest)
	}
	if err != nil || digest != h.digest {
		h.fail("%s: digest of the harvested leaves differs from the in-process sharded digest (%v)", r.name, err)
	}

	// Decode and re-encode the largest leaf snapshot.
	eb := expr.NewBuilder()
	end = h.tr.begin("snap.Decode")
	start = time.Now()
	sn, err := snap.Decode(largest, eb)
	m["snap.decode_s"] = time.Since(start).Seconds()
	end()
	if err != nil {
		h.fail("%s snapshot decode: %v", r.name, err)
		return nil
	}
	end = h.tr.begin("snap.Encode")
	start = time.Now()
	data, err := sn.Encode(eb)
	m["snap.encode_s"] = time.Since(start).Seconds()
	end()
	if err != nil || !bytes.Equal(data, largest) {
		h.fail("%s snapshot does not re-encode to the same bytes (%v)", r.name, err)
	}
	return nil
}

// toggles runs the toggle row once with each default layer switched off
// and once with merging on, and the reduce row once with reduction on.
// Each ratio has the row's default wall from the traced pass as its base:
// for a default layer wall(default)/wall(off), for an optional one
// wall(on)/wall(default).
func (h *harness) toggles(m map[string]float64, p pass) {
	wallOf := func(name string) float64 {
		for _, run := range p.runs {
			if run.row.name == name {
				return run.explore
			}
		}
		return 0
	}
	timed := func(label string, s sde.Scenario) (float64, *sde.Report) {
		h.collect()
		h.attempt()
		end := h.tr.begin("toggle:" + label)
		start := time.Now()
		rep, err := sde.RunScenario(s)
		wall := time.Since(start).Seconds()
		end()
		if err != nil {
			h.fail("%s: %v", label, err)
			return 0, nil
		}
		return wall, rep
	}
	tr := findRow(h.rows, h.wl.toggleRow)
	base := wallOf(tr.name)
	for _, t := range []struct {
		metric string
		s      sde.Scenario
	}{
		{"vm.compiled_ratio", tr.scenario.WithoutCompiledIR()},
		{"qopt.on_ratio", tr.scenario.WithoutQueryOptimizer()},
		{"spec.on_ratio", tr.scenario.WithoutSpeculation()},
	} {
		wall, rep := timed(t.metric, t.s)
		m[t.metric] = ratio(base, wall)
		// A default layer must not change what is explored.
		if rep != nil && (rep.States() != h.seen[tr.name].States || rep.DScenarios().String() != h.seen[tr.name].DScenarios) {
			h.fail("%s off changes the exploration of %s", t.metric, tr.name)
		}
	}
	if wall, rep := timed("merge.on_ratio", tr.scenario.WithMerging()); rep != nil {
		m["merge.on_ratio"] = ratio(wall, base)
		m["merge.merges"] = float64(rep.MergeStats().Merges)
	}
	rr := findRow(h.rows, h.wl.reduceRow)
	if wall, rep := timed("reduce.on_ratio", rr.scenario.WithReduction()); rep != nil {
		m["reduce.on_ratio"] = ratio(wall, wallOf(rr.name))
		m["reduce.pins"] = float64(rep.ReduceStats().Pins)
	}
}

// writeTrace writes the spans of a traced run, with the self time per span
// name, and its CPU profile.
func writeTrace(dir, workload string, res *tracedResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := marshalIndent(map[string]any{"workload": workload, "self_s": selfTimes(res.spans), "spans": res.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(fmt.Sprintf("%s/trace-%s.json", dir, workload), data, 0o644); err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("%s/cpu-%s.pprof", dir, workload), res.profile, 0o644)
}

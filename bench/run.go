package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sde"
	"sde/internal/dist"
	"sde/internal/metrics"
)

const (
	// poolWorkers is the size of the in-process shard pool, of the fleet
	// and of the lease pipeline: the host has two CPUs.
	poolWorkers = 2
	// testCases is the test-case budget of a run; digestCases the one
	// the sharded digest and fleet jobs use.
	testCases   = 64
	digestCases = 8
	// fleetRetryMillis is the idle-poll interval the coordinator hands
	// its workers. The service default (200 ms) would add a uniform
	// 0-200 ms of poll phase to every job and every continuation lease,
	// which is noise and not work.
	fleetRetryMillis = 10
	// setupReps is how many samples of the set-up time a round takes. A
	// set-up takes a fraction of a millisecond, and on a shared host a burst
	// of interference lasts longer than that: a sample is the median of as
	// many set-ups in a row as fit into setupSampleSeconds (at least
	// setupBatch), which drops the bursts.
	setupReps          = 2
	setupBatch         = 32
	setupSampleSeconds = 0.04
	// maxReplays bounds the violations replayed per row in the warm-up.
	maxReplays = 24
)

// outcome is what a run of a row must reproduce exactly: it is compared
// with expected.json and with every other run of the row in the process.
type outcome struct {
	States       int    `json:"states"`
	Groups       int    `json:"groups"`
	DScenarios   string `json:"dscenarios"`
	Instructions uint64 `json:"instructions"`
	Events       uint64 `json:"events"`
	Violations   int    `json:"violations"`
	PeakMem      int64  `json:"peak_mem"`
	Aborted      bool   `json:"aborted,omitempty"`
}

func outcomeOf(rep *sde.Report) outcome {
	aborted, _ := rep.Aborted()
	return outcome{
		States:       rep.States(),
		Groups:       rep.Groups(),
		DScenarios:   rep.DScenarios().String(),
		Instructions: rep.Instructions(),
		Events:       rep.Result().Events,
		Violations:   len(rep.Violations()),
		PeakMem:      rep.PeakMemBytes(),
		Aborted:      aborted,
	}
}

// harness runs one workload in this process.
type harness struct {
	wl    *workload
	quick bool
	seed  int64
	rng   *rand.Rand
	rows  []row
	part  partition
	tmp   string
	want  *expectedWorkload // nil while expected.json is being written
	tr    *tracer
	// profiling is set while the CPU profile of the traced rounds runs.
	profiling bool
	// ref, when set, is sampled before every timed operation; reference
	// summarizes its samples once the run has been measured.
	ref       *reference
	reference summary

	attempted, failed int
	notes             []string
	seen              map[string]outcome // first outcome of each row
	digest            string             // sharded digest at the partition
	tmpSeq            int
}

func newHarness(wl *workload, seed int64, quick bool, tmp string, want *expectedWorkload) *harness {
	part := wl.part
	if quick {
		part = wl.quickPart
	}
	return &harness{
		wl: wl, quick: quick, seed: seed, rng: rand.New(rand.NewSource(seed)),
		part: part, tmp: tmp, want: want, seen: make(map[string]outcome),
	}
}

// collect runs the garbage collector between timed operations, so that
// none of them pays for its predecessor's garbage. Under the CPU profile
// it does nothing: forced collections would be counted as the engine's.
func (h *harness) collect() {
	if !h.profiling {
		runtime.GC()
	}
	if h.ref != nil {
		h.ref.sample()
	}
}

// fail records a failed operation; attempt counts one tried.
func (h *harness) attempt() { h.attempted++ }
func (h *harness) fail(format string, args ...any) {
	h.failed++
	if len(h.notes) < 20 {
		h.notes = append(h.notes, fmt.Sprintf(format, args...))
	}
}

func (h *harness) tempDir(kind string) (string, error) {
	h.tmpSeq++
	dir := filepath.Join(h.tmp, fmt.Sprintf("%s-%d", kind, h.tmpSeq))
	return dir, os.MkdirAll(dir, 0o755)
}

// setupStats is what one set-up measured.
type setupStats struct {
	total, build, compile float64
	blocks, fastBlocks    int
}

// setup builds the workload's rows and compiles their programs:
// everything the library does before a run's first exploration. Bringing a
// fleet up is not part of it: connecting two workers over loopback takes
// 0.2 ms or 1.3 ms as the scheduler pleases, which would drown the rest,
// so the fleet job pays for its own bring-up instead.
func (h *harness) setup() (setupStats, error) {
	var st setupStats
	start := time.Now()
	rows, err := h.wl.build(h.seed, h.quick)
	if err != nil {
		return st, err
	}
	st.build = time.Since(start).Seconds()
	for _, r := range rows {
		for _, f := range r.scenario.Program().IR().Funcs {
			for _, b := range f.Blocks {
				st.blocks++
				if b.Fast {
					st.fastBlocks++
				}
			}
		}
	}
	st.total = time.Since(start).Seconds()
	st.compile = st.total - st.build
	h.rows = rows
	return st, nil
}

// rowRun is one run of a row: sde.RunScenario followed by
// Report.TestCases(testCases).
type rowRun struct {
	row                *row
	report             *sde.Report
	wall, explore, tcs float64
	cases              int
}

func (h *harness) runRow(r *row) rowRun {
	h.collect()
	h.attempt()
	h.tr.newRun()
	run := rowRun{row: r}
	endRun := h.tr.begin("run:" + r.name)
	start := time.Now()
	end := h.tr.begin("sde.RunScenario")
	rep, err := sde.RunScenario(r.scenario)
	end()
	run.explore = time.Since(start).Seconds()
	if err == nil {
		tcStart := time.Now()
		end = h.tr.begin("trace.TestCases")
		cases, tcErr := rep.TestCases(testCases)
		end()
		run.tcs = time.Since(tcStart).Seconds()
		run.cases, err = len(cases), tcErr
	}
	run.wall = time.Since(start).Seconds()
	endRun()
	if err != nil {
		h.fail("%s: %v", r.name, err)
		return run
	}
	run.report = rep
	h.checkOutcome(r, rep)
	return run
}

// checkOutcome compares a run with expected.json and with the row's first
// run in this process.
func (h *harness) checkOutcome(r *row, rep *sde.Report) {
	got := outcomeOf(rep)
	if got.Aborted != r.capAbort {
		_, reason := rep.Aborted()
		h.fail("%s: aborted=%v (%s), expected aborted=%v", r.name, got.Aborted, reason, r.capAbort)
		return
	}
	if first, ok := h.seen[r.name]; !ok {
		h.seen[r.name] = got
	} else if first != got {
		h.fail("%s: run differs from the first run: %+v != %+v", r.name, got, first)
		return
	}
	if h.want != nil {
		if want, ok := h.want.Rows[r.name]; !ok {
			h.fail("%s: no entry in expected.json", r.name)
		} else if want != got {
			h.fail("%s: %+v, expected.json has %+v", r.name, got, want)
		}
	}
}

// pass is one run of every row, in an order the seed chooses.
type pass struct {
	wall   float64
	byAlgo map[string]float64 // keyed by algoName
	runs   []rowRun
}

func (h *harness) plainPass() pass {
	order := h.rng.Perm(len(h.rows))
	p := pass{byAlgo: make(map[string]float64)}
	for _, i := range order {
		run := h.runRow(&h.rows[i])
		p.wall += run.wall
		p.byAlgo[algoName(run.row.algo)] += run.wall
		p.runs = append(p.runs, run)
	}
	h.checkCoverage(p.runs)
	return p
}

// checkCoverage requires COW and SDS to represent the same dscenarios on
// an input, and COB too when it finished.
func (h *harness) checkCoverage(runs []rowRun) {
	byInput := make(map[string]string)
	for _, run := range runs {
		if run.report == nil || run.row.capAbort {
			continue
		}
		input := run.row.name[:strings.LastIndex(run.row.name, "-")]
		d := run.report.DScenarios().String()
		if prev, ok := byInput[input]; ok && prev != d {
			h.fail("%s: algorithms disagree on dscenarios (%s vs %s)", input, prev, d)
		}
		byInput[input] = d
	}
}

// replayViolations replays up to maxReplays of each row's violations; a
// witness that does not reproduce its assertion is a failed operation.
func (h *harness) replayViolations(runs []rowRun) {
	for _, run := range runs {
		if run.report == nil {
			continue
		}
		vs := run.report.Violations()
		step := 1
		if len(vs) > maxReplays {
			step = len(vs) / maxReplays
		}
		for i := 0; i < len(vs); i += step {
			h.attempt()
			ok, _, err := run.report.ReplayViolation(vs[i])
			if err != nil || !ok {
				h.fail("%s: violation %d (%s) did not replay: %v", run.row.name, i, vs[i].Msg, err)
			}
		}
	}
}

func (h *harness) shardConfig() sde.ShardConfig {
	return sde.ShardConfig{
		ShardBits:     h.part.bits,
		Workers:       poolWorkers,
		DepthHorizon:  h.part.horizon,
		HorizonFanout: h.part.fanout,
	}
}

// sharded runs the shard row on the in-process pool, wl.shardReps times,
// and returns the median wall and the last report.
func (h *harness) sharded() (float64, *sde.ShardedReport) {
	r := findRow(h.rows, h.wl.shardRow)
	var walls []float64
	var last *sde.ShardedReport
	h.collect()
	for i := 0; i < h.wl.shardReps; i++ {
		h.attempt()
		end := h.tr.begin("sde.RunScenarioShardedWith")
		start := time.Now()
		rep, err := sde.RunScenarioShardedWith(r.scenario, h.shardConfig())
		walls = append(walls, time.Since(start).Seconds())
		end()
		if err != nil {
			h.fail("%s sharded: %v", r.name, err)
			continue
		}
		if aborted, reason := rep.Aborted(); aborted {
			h.fail("%s sharded: aborted: %s", r.name, reason)
		}
		last = rep
	}
	return median(walls), last
}

// shardedDigest computes the digest of the in-process sharded report,
// returns how long that took, and checks the digest against expected.json
// and against the ones seen before in this process.
func (h *harness) shardedDigest(rep *sde.ShardedReport) float64 {
	if rep == nil {
		return 0
	}
	h.attempt()
	end := h.tr.begin("sde.Digest")
	start := time.Now()
	digest, err := rep.Digest(digestCases)
	wall := time.Since(start).Seconds()
	end()
	if err == nil {
		digest, err = h.comparable(rep, digest)
	}
	switch {
	case err != nil:
		h.fail("%s digest: %v", h.wl.shardRow, err)
	case h.digest != "" && digest != h.digest:
		h.fail("%s: sharded digest changed between runs", h.wl.shardRow)
	case h.want != nil && h.want.Digest != "" && digest != h.want.Digest:
		h.fail("%s: sharded digest %s, expected.json has %s", h.wl.shardRow, digest, h.want.Digest)
	default:
		h.digest = digest
	}
	return wall
}

// comparable returns the digest by which the modes of a run are compared:
// Digest(digestCases), which the caller has computed, for a built-in
// workload. On reconcile the concrete test cases of a resumed leaf differ
// from those of the uninterrupted run — both satisfy the same path
// conditions, but the solver's model pool and caches are not part of a
// snapshot — so its modes are compared by Digest(0): pins, state and
// dscenario counts, dscenario fingerprints, violations and witnesses.
func (h *harness) comparable(rep *sde.ShardedReport, withCases string) (string, error) {
	if findRow(h.rows, h.wl.shardRow).spec != nil {
		return withCases, nil
	}
	return rep.Digest(0)
}

// fleet is a coordinator with poolWorkers workers connected over
// loopback TCP, all in this process.
type fleet struct {
	coord   *dist.Coordinator
	cancel  context.CancelFunc
	done    sync.WaitGroup
	workers []error
}

func startFleet(dir string) (*fleet, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{
		coord:   dist.NewCoordinator(dist.Options{RetryMillis: fleetRetryMillis}),
		cancel:  cancel,
		workers: make([]error, poolWorkers),
	}
	f.done.Add(1)
	go func() {
		defer f.done.Done()
		_ = f.coord.Serve(l) // returns when Close closes the listener
	}()
	for i := 0; i < poolWorkers; i++ {
		i := i
		f.done.Add(1)
		go func() {
			defer f.done.Done()
			f.workers[i] = dist.RunWorker(ctx, l.Addr().String(), dist.WorkerOptions{
				Name:    fmt.Sprintf("w%d", i),
				WorkDir: filepath.Join(dir, fmt.Sprintf("w%d", i)),
			})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.coord.Registry().Value("sde_workers_connected", nil) < poolWorkers {
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleet: workers did not connect: %v", f.workers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return f, nil
}

// stop ends the workers and the coordinator and waits for their
// goroutines.
func (f *fleet) stop() {
	f.cancel()
	_ = f.coord.Close()
	f.done.Wait()
}

// fleetStats are the coordinator's counters after a job.
type fleetStats struct {
	leases, contLeases, requeues float64
}

// fleetJob brings up a fresh fleet, submits the shard row and waits for the
// job's report and digest; all of that is timed. A workload whose program is built here has no
// spec to submit; it runs the same leases through leasePipeline.
func (h *harness) fleetJob() (float64, fleetStats) {
	r := findRow(h.rows, h.wl.shardRow)
	h.collect()
	h.attempt()
	if r.spec == nil {
		return h.leasePipeline(r), fleetStats{}
	}
	dir, err := h.tempDir("fleet")
	if err != nil {
		h.fail("fleet: %v", err)
		return 0, fleetStats{}
	}
	defer os.RemoveAll(dir)
	end := h.tr.begin("dist.job")
	start := time.Now()
	fl, err := startFleet(dir)
	if err != nil {
		end()
		h.fail("fleet: %v", err)
		return 0, fleetStats{}
	}
	defer fl.stop()
	id, err := fl.coord.AddJobWith(*r.spec, dist.JobOptions{
		ShardBits:     h.part.bits,
		TestCases:     digestCases,
		DepthHorizon:  h.part.horizon,
		HorizonFanout: h.part.fanout,
	})
	if err == nil {
		select {
		case <-fl.coord.WaitJob(id):
		case <-time.After(2 * time.Minute):
			err = fmt.Errorf("job did not finish")
		}
	}
	wall := time.Since(start).Seconds()
	end()
	if err != nil {
		h.fail("%s fleet: %v", r.name, err)
		return wall, fleetStats{}
	}
	st, _ := fl.coord.JobStatus(id)
	switch {
	case st.State != dist.JobDone:
		h.fail("%s fleet: job %s: %s", r.name, st.State, st.Error)
	case st.Digest != h.digest:
		h.fail("%s: fleet digest differs from the in-process sharded digest", r.name)
	}
	reg := fl.coord.Registry()
	return wall, fleetStats{
		leases:     sumFamily(reg, "sde_leases_issued_total"),
		contLeases: sumFamily(reg, "sde_continuation_leases_total"),
		requeues:   sumFamily(reg, "sde_lease_requeues_total"),
	}
}

// sumFamily sums a metric family of the coordinator's registry over its
// label sets.
func sumFamily(reg *metrics.PromRegistry, name string) float64 {
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		return 0
	}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) || len(line) == len(name) {
			continue
		}
		if c := line[len(name)]; c != ' ' && c != '{' {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// leasePipeline is the fleet's path without the wire: the partition's
// leases run through sde.RunShardLease on poolWorkers goroutines, their
// snapshots are assembled with sde.AssembleSharded and the report is
// digested, which is what workers and coordinator do for a job.
func (h *harness) leasePipeline(r *row) float64 {
	dir, err := h.tempDir("leases")
	if err != nil {
		h.fail("lease pipeline: %v", err)
		return 0
	}
	defer os.RemoveAll(dir)
	end := h.tr.begin("sde.leasePipeline")
	defer end()
	start := time.Now()
	hv, err := harvest(r.scenario, h.part, dir, poolWorkers, nil)
	var digest string
	var rep *sde.ShardedReport
	if err == nil {
		if rep, err = sde.AssembleSharded(r.scenario, hv.leaves); err == nil {
			digest, err = rep.Digest(digestCases)
		}
	}
	wall := time.Since(start).Seconds()
	if err == nil {
		digest, err = h.comparable(rep, digest)
	}
	switch {
	case err != nil:
		h.fail("%s lease pipeline: %v", r.name, err)
	case digest != h.digest:
		h.fail("%s: lease pipeline digest differs from the in-process sharded digest", r.name)
	}
	return wall
}

// ckptResume runs the checkpoint row through sde.Checkpoint into a fresh
// directory and then resumes the finished directory wl.resumeReps times.
// It returns both walls (resume as the median) and the number of journal
// entries the checkpointing wrote.
func (h *harness) ckptResume() (ckpt, resume float64, journal int) {
	r := findRow(h.rows, h.wl.ckptRow)
	dir, err := h.tempDir("ckpt")
	if err != nil {
		h.fail("checkpoint: %v", err)
		return 0, 0, 0
	}
	defer os.RemoveAll(dir)
	h.collect()
	h.attempt()
	end := h.tr.begin("sde.Checkpoint")
	start := time.Now()
	rep, err := sde.Checkpoint(r.scenario, dir)
	ckpt = time.Since(start).Seconds()
	end()
	if err != nil {
		h.fail("%s checkpoint: %v", r.name, err)
		return ckpt, 0, 0
	}
	h.checkOutcome(r, rep)
	if data, err := os.ReadFile(filepath.Join(dir, "journal.log")); err == nil {
		journal = strings.Count(string(data), "\n")
	}
	h.collect()
	end = h.tr.begin("sde.Resume")
	var walls []float64
	for i := 0; i < h.wl.resumeReps; i++ {
		h.attempt()
		start = time.Now()
		rep, err := sde.Resume(r.scenario, dir)
		walls = append(walls, time.Since(start).Seconds())
		switch {
		case err != nil:
			h.fail("%s resume: %v", r.name, err)
		case !rep.Resumed():
			h.fail("%s resume: started fresh", r.name)
		case rep.States() != h.seen[r.name].States || rep.DScenarios().String() != h.seen[r.name].DScenarios:
			h.fail("%s resume: %d states, %s dscenarios", r.name, rep.States(), rep.DScenarios())
		}
	}
	end()
	return ckpt, median(walls), journal
}

// round is one sample of every mode: a plain pass, the sharded row, the
// fleet job, and checkpoint and resume.
type round struct {
	pass                         pass
	sharded, fleet, ckpt, resume float64
	shardedReport                *sde.ShardedReport
	fleetStats                   fleetStats
	journal                      int
}

func (h *harness) round() round {
	var rd round
	rd.pass = h.plainPass()
	rd.sharded, rd.shardedReport = h.sharded()
	if h.digest == "" {
		h.shardedDigest(rd.shardedReport)
	}
	rd.fleet, rd.fleetStats = h.fleetJob()
	rd.ckpt, rd.resume, rd.journal = h.ckptResume()
	return rd
}

// peakRSS returns the process's peak resident set in MiB (VmHWM).
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

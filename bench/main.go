// Command bench is the repository's end-to-end benchmark: the paper's
// grid-collect anchor, a query-bearing protocol, a vm-bound synthetic and a
// flooding workload, each run through the library, the in-process sharded
// runner, a coordinator with two workers, and checkpoint and resume. See
// README.md for the metric catalogue and how to run and compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runSeconds is how long the timed rounds of a workload run by default,
// and what BENCHMARK.json tells the driver.
const runSeconds = 26

// metricValue is one metric of the result line the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostBlock is written into every result.
type hostBlock struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick,omitempty"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	// Reference is the reference kernel's time over the run, in measured
	// seconds; every timing of EndToEnd has been multiplied by
	// referenceNominal / Reference.Median.
	Reference *summary           `json:"reference,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// resultFile is what a run of all workloads writes and -compare reads.
type resultFile struct {
	Host      hostBlock        `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

func marshalIndent(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	return append(data, '\n'), err
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	quick    bool
	outDir   string
	compare  bool
	update   bool
	manifest bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (collect, reconcile, deepchain, discovery); default: all, one child process each")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs and of the order rows run in")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed rounds of a workload run")
	flag.IntVar(&trace, "trace", 0, "1: run the traced pass and report the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "tiny sizes and one round, for tests")
	flag.StringVar(&o.outDir, "out", "", "directory for result files, traces and profiles (default .bench_build/out under the repository root)")
	flag.BoolVar(&o.compare, "compare", false, "compare two sets of result files: -compare old.json[,old2.json...] new.json[,...]")
	flag.BoolVar(&o.update, "update-expected", false, "run every workload once and rewrite expected.json")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json for the metric catalogue and exit")
	flag.Parse()
	o.traced = trace == 1
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.manifest:
		data, err := marshalIndent(benchmarkManifest())
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two arguments: the old and the new result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	outDir := o.outDir
	if outDir == "" {
		outDir = filepath.Join(root, ".bench_build", "out")
	}
	tmp := filepath.Join(root, ".bench_build", "tmp", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	host := hostBlock{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commitID(root), Seed: o.seed, Quick: o.quick,
	}
	switch {
	case o.update:
		return updateExpected(filepath.Join(root, "bench", "expected.json"), tmp)
	case o.workload == "":
		return runAll(host, o.seconds, outDir)
	}
	wl := findWorkload(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runWorkload(wl, host, o.seconds, o.traced, tmp, outDir)
	if err != nil {
		return err
	}
	printWorkload(os.Stdout, host, res)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := marshalIndent(resultFile{Host: host, Workloads: []workloadResult{*res}})
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath(outDir, wl.name, o.traced), data, 0o644); err != nil {
		return err
	}
	// The driver reads the last line of standard output.
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	if o.traced {
		for _, d := range perLayer {
			line.Metrics[d.Name] = metricValue{Value: res.PerLayer[d.Name], Unit: d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = metricValue{Value: res.EndToEnd[d.Name].reported(), Unit: d.Unit}
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// resultPath names the result file of one workload run.
func resultPath(outDir, workload string, traced bool) string {
	kind := "e2e"
	if traced {
		kind = "layers"
	}
	return filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", workload, kind))
}

// runWorkload runs one workload in this process: the end-to-end metrics
// from untraced rounds, or the per-layer metrics from the traced pass.
func runWorkload(wl *workload, host hostBlock, seconds float64, traced bool, tmp, outDir string) (*workloadResult, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	want := exp[modeName(host.Quick)][wl.name]
	if want == nil {
		return nil, fmt.Errorf("expected.json has no %s entry for %s; run -update-expected", modeName(host.Quick), wl.name)
	}
	h := newHarness(wl, host.Seed, host.Quick, tmp, want)
	res := &workloadResult{Workload: wl.name}
	if traced {
		tr, err := h.traced()
		if err != nil {
			return nil, err
		}
		res.PerLayer = tr.metrics
		if err := writeTrace(outDir, wl.name, tr); err != nil {
			return nil, err
		}
	} else {
		if res.EndToEnd, err = h.measure(seconds); err != nil {
			return nil, err
		}
		res.Reference = &h.reference
	}
	res.Attempted, res.Failed, res.Notes = h.attempted, h.failed, h.notes
	return res, nil
}

// measure produces the end-to-end metrics: setup_s from setupReps
// set-ups, then one untimed warm-up round, then timed rounds for the
// given number of seconds (at least three; one in quick mode). The
// reference kernel is sampled before every timed operation, and the timings
// are reported in seconds of the reference host (see reference.go).
func (h *harness) measure(seconds float64) (_ map[string]summary, err error) {
	samples := make(map[string][]float64)
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	h.ref = ref
	defer func() {
		h.ref = nil
		if cerr := ref.close(); err == nil {
			err = cerr
		}
	}()
	// setupSample times set-ups in a row for setupSampleSeconds (at least
	// setupBatch of them) and keeps their median, which drops the bursts of
	// interference that outlast one set-up.
	setupSample := func() error {
		h.collect()
		batch, sampleSeconds := setupBatch, setupSampleSeconds
		if h.quick {
			batch, sampleSeconds = 1, 0
		}
		var times []float64
		for start := time.Now(); len(times) < batch || time.Since(start).Seconds() < sampleSeconds; {
			st, err := h.setup()
			if err != nil {
				return err
			}
			times = append(times, st.total)
		}
		add("setup_s", median(times))
		return nil
	}
	if err := setupSample(); err != nil {
		return nil, err
	}
	minRounds := 3
	if h.quick {
		minRounds = 1
	} else {
		h.replayViolations(h.round().pass.runs)
	}
	start := time.Now()
	// done stops the rounds when the next one would end further past the
	// deadline than the last one ended before it.
	done := func(n int) bool {
		if n < minRounds || h.quick {
			return n >= minRounds
		}
		elapsed := time.Since(start).Seconds()
		return elapsed+elapsed/float64(n)/2 > seconds
	}
	for n := 0; !done(n); n++ {
		// Sampled only at the start of the process, set-up came out at one
		// of two speeds, half as fast again in one as in the other, whole
		// runs in one mode; sampled between the rounds it sees the whole
		// run, like every other timing.
		for i := 0; i < setupReps && !h.quick; i++ {
			if err := setupSample(); err != nil {
				return nil, err
			}
		}
		rd := h.round()
		if h.quick {
			h.replayViolations(rd.pass.runs)
		}
		add("wall_s", rd.pass.wall)
		for algo, wall := range rd.pass.byAlgo {
			add(algo+"_wall_s", wall)
		}
		add("sharded_wall_s", rd.sharded)
		add("fleet_wall_s", rd.fleet)
		add("ckpt_wall_s", rd.ckpt)
		add("resume_wall_s", rd.resume)
	}
	h.reference = summarize(ref.samples)
	scale := referenceNominal / h.reference.Median
	out := make(map[string]summary, len(samples))
	for name, v := range samples {
		for i := range v {
			v[i] *= scale
		}
		out[name] = summarize(v)
	}
	// The exact metrics: checkOutcome has failed the run if any run of a
	// row differed from its first.
	states, peak := 0, int64(0)
	for _, o := range h.seen {
		states += o.States
		if o.PeakMem > peak {
			peak = o.PeakMem
		}
	}
	out["states"] = summarize([]float64{float64(states)})
	out["peak_model_mib"] = summarize([]float64{float64(peak) / (1 << 20)})
	out["rss_peak_mib"] = summarize([]float64{peakRSS() - referenceTableMiB})
	return out, nil
}

// runAll runs every workload in a child process of its own, untraced and
// then traced, and writes one result file.
func runAll(host hostBlock, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Host: host}
	for _, wl := range workloads {
		merged := workloadResult{Workload: wl.name}
		for trace, traced := range []bool{false, true} {
			args := []string{"-workload", wl.name, "-seed", fmt.Sprint(host.Seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir}
			if host.Quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", wl.name, trace, err)
			}
			part, err := readResultFile(resultPath(outDir, wl.name, traced))
			if err != nil {
				return err
			}
			if len(part.Workloads) != 1 {
				return fmt.Errorf("%s (trace %d): %d workloads in the result file", wl.name, trace, len(part.Workloads))
			}
			w := part.Workloads[0]
			merged.Attempted += w.Attempted
			merged.Failed += w.Failed
			merged.Notes = append(merged.Notes, w.Notes...)
			if w.EndToEnd != nil {
				merged.EndToEnd = w.EndToEnd
			}
			if w.PerLayer != nil {
				merged.PerLayer = w.PerLayer
			}
		}
		file.Workloads = append(file.Workloads, merged)
	}
	data, err := marshalIndent(file)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", path)
	for _, w := range file.Workloads {
		if w.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", w.Workload, w.Failed, w.Attempted)
		}
	}
	return nil
}

// printWorkload prints every metric of a workload result by name and unit.
func printWorkload(w io.Writer, host hostBlock, res *workloadResult) {
	fmt.Fprintf(w, "\n== %s  (cpus=%d gomaxprocs=%d %s commit=%s seed=%d)\n", res.Workload,
		host.CPUs, host.GOMAXPROCS, host.GoVersion, host.Commit, host.Seed)
	if wl := findWorkload(res.Workload); wl != nil {
		fmt.Fprintf(w, "   %s\n", wl.why)
		if res.Workload == "reconcile" {
			fmt.Fprintln(w, "   no TCP fleet row: sde.ScenarioSpec cannot carry a custom program; fleet_wall_s is the same leases run in-process (RunShardLease x2 goroutines -> AssembleSharded -> Digest)")
		}
	}
	if res.EndToEnd != nil {
		fmt.Fprintf(w, "   sharded and fleet numbers are %d-CPU loopback numbers\n", host.CPUs)
		if ref := res.Reference; ref != nil {
			fmt.Fprintf(w, "   reference kernel: median %.6g s [%.6g, %.6g] n=%d; timings below are measured seconds x %.6g (= %g / median)\n",
				ref.Median, ref.Q1, ref.Q3, ref.N, referenceNominal/ref.Median, referenceNominal)
		}
		fmt.Fprintf(w, "   %-16s %-6s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, d := range endToEnd {
			s := res.EndToEnd[d.Name]
			fmt.Fprintf(w, "   %-16s %-6s %12.6g %12.6g %12.6g %4d\n", d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
	}
	if res.PerLayer != nil {
		fmt.Fprintf(w, "   per-layer metrics of the traced pass (trace_overhead = traced pass wall / untraced median)\n")
		var share float64
		for _, d := range perLayer {
			fmt.Fprintf(w, "   %-30s %-6s %14.6g\n", d.Name, d.Unit, res.PerLayer[d.Name])
		}
		for _, name := range cpuShareModules {
			share += res.PerLayer[name]
		}
		fmt.Fprintf(w, "   %-30s %-6s %14.6g\n", "(sum of cpu_share)", "ratio", share)
	}
	fmt.Fprintf(w, "   failed %d of %d attempted (failed_share %.4g)\n", res.Failed, res.Attempted,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   FAILED: %s\n", n)
	}
}

// repoRoot finds the checkout the benchmark runs in: the directory that
// holds BENCHMARK.json, which is the working directory or its parent.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "main.go")); err == nil {
				return filepath.Abs(dir)
			}
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/: BENCHMARK.json not found")
}

// commitID reads the checked-out commit without leaving the checkout.
func commitID(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	data, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// benchmarkManifest renders the metric catalogue as BENCHMARK.json.
func benchmarkManifest() map[string]any {
	type wlEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wlEntry
	for _, wl := range workloads {
		wls = append(wls, wlEntry{wl.name, wl.why})
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var layers []layerEntry
	for _, d := range perLayer {
		layers = append(layers, layerEntry{d.Name, d.Unit, d.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   wls,
		"end_to_end":  endToEnd,
		"per_layer":   layers,
	}
}

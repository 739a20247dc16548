package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles are Python's statistics.quantiles(v, n=4).
func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.v)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.med) || !near(s.Q3, tc.q3) || s.N != len(tc.v) {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", tc.v, s, tc.q1, tc.med, tc.q3)
		}
	}
	if c := (compared{value: 10, q1: 9, q3: 11, n: 5}); !near(c.spread(), (11-9)/10.0) {
		t.Errorf("spread = %v", c.spread())
	}
}

// The reference kernel records one positive sample per call.
func TestReferenceSample(t *testing.T) {
	r, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	r.sample()
	r.sample()
	if len(r.samples) != 2 || r.samples[0] <= 0 || r.samples[1] <= 0 {
		t.Errorf("samples = %v", r.samples)
	}
	if err := r.close(); err != nil {
		t.Error(err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "explore", Start: 1, End: 6},
		{ID: 2, Parent: 1, Name: "solve", Start: 2, End: 4},
		{ID: 3, Parent: 0, Name: "cases", Start: 5, End: 8},  // overlaps explore by 1
		{ID: 4, Parent: 0, Name: "cases", Start: 9, End: 12}, // runs past its parent
	}
	self := selfTimes(spans)
	// run: 10 - |[1,6] u [5,8] u [9,10]| = 10 - 8 = 2
	want := map[string]float64{"run": 2, "explore": 3, "solve": 2, "cases": 6}
	for name, w := range want {
		if !near(self[name], w) {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.newRun()
	off.begin("nothing")() // a nil tracer records nothing and does not panic

	tr := newTracer()
	tr.newRun()
	endA := tr.begin("a")
	endB := tr.begin("b")
	endB()
	endA()
	tr.newRun()
	tr.begin("c")()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[2].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].Run != 1 || tr.spans[2].Run != 2 {
		t.Errorf("run ids = %d, %d", tr.spans[0].Run, tr.spans[2].Run)
	}
	if tr.spans[1].End < tr.spans[1].Start || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("span times out of order: %+v", tr.spans)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"sde/internal/vm.(*State).run":                                      "sde/internal/vm",
		"sde/internal/core.(*sds[go.shape.*sde/internal/vm.State]).MapSend": "sde/internal/core",
		"sde.(*ShardedReport).Digest":                                       "sde",
		"runtime.mallocgc":                                                  "runtime",
		"internal/runtime/maps.(*Iter).Next":                                "internal/runtime/maps",
		"main.(*harness).runRow":                                            "main",
		"aeshashbody":                                                       "aeshashbody",
		"sde/internal/sim.(*Engine).modelBytes.func1":                       "sde/internal/sim",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSampleBucket(t *testing.T) {
	for _, tc := range []struct {
		want  string
		stack []string
	}{
		// Background marking has no frame of the repository at all.
		{"runtime.gc_cpu_share", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}},
		// An allocating goroutine made to assist the collector.
		{"runtime.gc_cpu_share", []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "sde/internal/vm.(*State).Fork"}},
		{"runtime.malloc_cpu_share", []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "sde/internal/expr.(*Builder).mk"}},
		// Runtime and library helpers are charged to the module that called them.
		{"expr.cpu_share", []string{"aeshashbody", "type:.hash.sde/internal/expr.exprKey", "runtime.mapaccess2", "sde/internal/expr.(*Builder).mk", "sde/internal/vm.(*State).run"}},
		{"vm.cpu_share", []string{"internal/runtime/maps.(*Iter).Next", "sde/internal/vm.(*State).ForEachPage", "sde/internal/sim.(*Engine).modelBytes"}},
		{"core.cpu_share", []string{"sort.insertionSort", "sort.Slice", "sde/internal/core.(*sds[go.shape.*uint8]).Explode", "sde.(*ShardedReport).Digest"}},
		{"sde.cpu_share", []string{"crypto/sha256.block", "sde.(*ShardedReport).Digest", "main.(*harness).shardedDigest"}},
		{"solver.cpu_share", []string{"sde/internal/solver.(*satSolver).propagate"}},
		{"other.cpu_share", []string{"sde/internal/rime.CollectProgram", "sde.GridCollectScenario"}},
		{"other.cpu_share", []string{"encoding/json.Marshal", "main.run"}},
		{"runtime.other_cpu_share", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}},
		{"runtime.other_cpu_share", nil},
	} {
		if got := sampleBucket(tc.stack); got != tc.want {
			t.Errorf("sampleBucket(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
	shares := cpuShares([]profSample{
		{weight: 30, stack: []string{"runtime.gcBgMarkWorker"}},
		{weight: 70, stack: []string{"sde/internal/vm.(*State).run"}},
	})
	if !near(shares["runtime.gc_cpu_share"], 0.3) || !near(shares["vm.cpu_share"], 0.7) {
		t.Errorf("shares = %v", shares)
	}
}

var sink uint64

// A profile written by runtime/pprof parses into stacks that name this
// test.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profile unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := uint64(0); i < 1e6; i++ {
			sink = sink*6364136223846793005 + i
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var mine int64
	for _, s := range samples {
		for _, fn := range s.stack {
			if strings.Contains(fn, "TestParseProfile") {
				mine += s.weight
				break
			}
		}
	}
	if mine == 0 {
		t.Fatalf("no sample names this test in %d samples", len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) compared { return compared{value: m, q1: m * 0.99, q3: m * 1.01, n: 7} }
	for _, tc := range []struct {
		old, new compared
		want     string
	}{
		{tight(1), tight(1.05), "same"},
		{tight(1), tight(1.2), "worse"},
		{tight(1), tight(0.8), "better"},
		{tight(1), compared{value: 1.2, q1: 1.0, q3: 1.4, n: 7}, "unresolved"},
		{compared{}, tight(1), "unresolved"},
	} {
		if _, got := verdict(tc.old, tc.new, 0.10); got != tc.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", tc.old, tc.new, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, failed int) string {
		e2e := make(map[string]summary)
		for _, d := range endToEnd {
			e2e[d.Name] = summary{Median: 1, Q1: 1, Q3: 1, N: 5}
		}
		e2e["wall_s"] = summary{Median: wall, Q1: wall, Q3: wall, N: 5}
		data, err := json.Marshal(resultFile{Workloads: []workloadResult{{Workload: "collect", Attempted: 10, Failed: failed, EndToEnd: e2e}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", 1, 0)
	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same.json", 1.02, 0)); err != nil {
		t.Errorf("equal runs compared as %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), "same") {
		t.Errorf("no wall_s row in:\n%s", out.String())
	}
	if err := compareFiles(&out, base, write("slow.json", 1.5, 0)); err == nil || !strings.Contains(err.Error(), "collect/wall_s") {
		t.Errorf("a 50%% slower wall_s compared as %v", err)
	}
	// Sets of runs are compared by the median of the runs' values: 1 and 1.5 against
	// 1.02 and 1.5 is the same, whatever the single files say.
	if err := compareFiles(&out, base+","+write("old2.json", 1.5, 0), write("same.json", 1.02, 0)+","+write("slow.json", 1.5, 0)); err != nil {
		t.Errorf("equal sets compared as %v", err)
	}
	if err := compareFiles(&out, base, write("failing.json", 1, 1)); err == nil || !strings.Contains(err.Error(), "failed_share") {
		t.Errorf("a higher failed_share compared as %v", err)
	}
}

// Each row of collect has its sim.row.<row>_s metric in the catalogue.
func TestCollectRowNames(t *testing.T) {
	rows, err := findWorkload("collect").build(1, true)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rows {
		names = append(names, r.name)
	}
	if !reflect.DeepEqual(names, collectRowNames) {
		t.Errorf("collect builds rows %v, the catalogue lists %v", names, collectRowNames)
	}
}

// BENCHMARK.json at the root is the catalogue, written by -manifest.
func TestManifestMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var onDisk any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(benchmarkManifest())
	if err != nil {
		t.Fatal(err)
	}
	var fromCatalog any
	if err := json.Unmarshal(want, &fromCatalog); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromCatalog) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run . -manifest > ../BENCHMARK.json")
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", n)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// Every workload in every mode at tiny sizes: the outputs are checked
// against expected.json, the digests of the sharded run, the fleet job and
// the harvested leaves against each other, and every metric of the
// catalogue is reported.
func TestQuickSmoke(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			want := exp["quick"][wl.name]
			if want == nil {
				t.Fatal("expected.json has no quick entry; run -update-expected")
			}
			h := newHarness(wl, 7, true, t.TempDir(), want)
			e2e, err := h.measure(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if s, ok := e2e[d.Name]; !ok || s.Median <= 0 {
					t.Errorf("%s = %+v, want a positive value", d.Name, s)
				}
			}
			if h.digest == "" {
				t.Error("no sharded digest was computed")
			}
			h = newHarness(wl, 7, true, t.TempDir(), want)
			tr, err := h.traced()
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayer {
				if _, ok := tr.metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s was not reported", d.Name)
				}
			}
			var shares float64
			for _, name := range cpuShareModules {
				shares += tr.metrics[name]
			}
			if len(tr.profile) == 0 || shares < 0.95 || shares > 1.0001 {
				t.Errorf("cpu shares sum to %v over a %d-byte profile", shares, len(tr.profile))
			}
			if q := tr.metrics["solver.queries"]; (wl.name == "reconcile") != (q > 0) {
				t.Errorf("solver.queries = %v", q)
			}
			// The spans of the traced rounds nest under one root, so
			// their self times add up to its duration.
			var under []span
			in := make(map[int]bool)
			for _, s := range tr.spans { // in creation order: parents first
				if s.Name == "rounds" && s.Parent == -1 || in[s.Parent] {
					in[s.ID] = true
					under = append(under, s)
				}
			}
			if len(under) < 10 {
				t.Fatalf("only %d spans under the traced rounds", len(under))
			}
			var self float64
			for _, v := range selfTimes(under) {
				self += v
			}
			if root := under[0].End - under[0].Start; math.Abs(self-root) > 0.05*root {
				t.Errorf("span self times sum to %v, the traced rounds took %v", self, root)
			}
			if h.failed != 0 {
				t.Errorf("%d of %d operations failed: %v", h.failed, h.attempted, h.notes)
			}
		})
	}
}

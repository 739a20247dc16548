package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleSeries(n int) *Series {
	var s Series
	for i := 0; i < n; i++ {
		s.Add(Sample{
			Wall:        time.Duration(i) * time.Millisecond,
			VirtualTime: uint64(i * 10),
			States:      i + 1,
			MemBytes:    int64((i + 1) * 1000),
		})
	}
	return &s
}

func TestSeriesBasics(t *testing.T) {
	s := sampleSeries(5)
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	last, ok := s.Last()
	if !ok || last.States != 5 {
		t.Errorf("Last = %+v, ok=%v", last, ok)
	}
	if got := s.PeakStates(); got != 5 {
		t.Errorf("PeakStates = %d, want 5", got)
	}
	if got := s.PeakMem(); got != 5000 {
		t.Errorf("PeakMem = %d, want 5000", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if _, ok := s.Last(); ok {
		t.Error("Last on empty series reported ok")
	}
	if s.PeakMem() != 0 || s.PeakStates() != 0 {
		t.Error("peaks on empty series nonzero")
	}
	if got := s.Downsample(10); len(got) != 0 {
		t.Errorf("Downsample(empty) = %d samples", len(got))
	}
}

func TestPeakNotLast(t *testing.T) {
	var s Series
	s.Add(Sample{States: 10, MemBytes: 100})
	s.Add(Sample{States: 50, MemBytes: 900})
	s.Add(Sample{States: 20, MemBytes: 300})
	if s.PeakStates() != 50 || s.PeakMem() != 900 {
		t.Errorf("peaks = %d/%d, want 50/900", s.PeakStates(), s.PeakMem())
	}
}

func TestDownsample(t *testing.T) {
	s := sampleSeries(100)
	got := s.Downsample(10)
	if len(got) != 10 {
		t.Fatalf("Downsample(10) = %d samples", len(got))
	}
	if got[0].States != 1 {
		t.Errorf("first sample = %+v, want the series head", got[0])
	}
	if got[9].States != 100 {
		t.Errorf("last sample = %+v, want the series tail", got[9])
	}
	for i := 1; i < len(got); i++ {
		if got[i].States < got[i-1].States {
			t.Errorf("downsampled series not monotone at %d", i)
		}
	}
	// Fewer samples than requested: return all.
	if got := sampleSeries(3).Downsample(10); len(got) != 3 {
		t.Errorf("Downsample beyond length = %d samples, want 3", len(got))
	}
}

// withCounter returns a RunStats whose i-th counter — the leaf fields of
// its parts, in declaration order — is n (true for a bool), all others
// zero, and the counter's path; the path is empty past the last counter.
func withCounter(i int, n int64) (st RunStats, path string) {
	var walk func(p string, v reflect.Value)
	walk = func(p string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for f := 0; f < v.NumField(); f++ {
				walk(p+"."+v.Type().Field(f).Name, v.Field(f))
			}
			return
		}
		if i--; i != -1 {
			return
		}
		path = p
		switch {
		case v.Kind() == reflect.Bool:
			v.SetBool(true)
		case v.CanInt():
			v.SetInt(n)
		default:
			v.SetUint(uint64(n))
		}
	}
	walk("RunStats", reflect.ValueOf(&st).Elem())
	return st, path
}

// TestAddCarriesEveryCounter is the guard for the one merge function: a
// counter declared on any part of RunStats but not merged by Add fails
// here, from either side, and so does one merged by neither sum nor max.
func TestAddCarriesEveryCounter(t *testing.T) {
	n := 0
	for ; ; n++ {
		b, path := withCounter(n, 7)
		if path == "" {
			break
		}
		if got := (RunStats{}).Add(b); got != b {
			t.Errorf("%s: zero.Add(b) lost it: %+v", path, got)
		}
		if got := b.Add(RunStats{}); got != b {
			t.Errorf("%s: b.Add(zero) lost it: %+v", path, got)
		}
		a, _ := withCounter(n, 5)
		sum, _ := withCounter(n, 12)
		if got := a.Add(b); got != sum && got != b {
			t.Errorf("%s: 5 + 7 is neither summed nor the larger: %+v", path, got)
		}
	}
	if n < 37 {
		t.Fatalf("walked %d counters; RunStats has more than that", n)
	}
}

// TestAddSumsAndPeaks pins which is which for one counter of each kind.
func TestAddSumsAndPeaks(t *testing.T) {
	a := RunStats{VM: VMStats{Instructions: 5}, Spec: SpecStats{InflightPeak: 5, Workers: 2}}
	b := RunStats{VM: VMStats{Instructions: 7}, Spec: SpecStats{InflightPeak: 7, Workers: 2}}
	got := a.Add(b)
	if got.VM.Instructions != 12 || got.Spec.InflightPeak != 7 || got.Spec.Workers != 2 {
		t.Errorf("Add = %+v, want instructions summed, peak and workers kept at the larger", got)
	}
}

func TestRunStatsString(t *testing.T) {
	if s := (RunStats{}).String(); s != "" {
		t.Errorf("zero value renders %q, want nothing", s)
	}
	st := RunStats{
		VM:         VMStats{Instructions: 205, FastBlocks: 23, SlowBlocks: 20},
		Spec:       SpecStats{Workers: 2, Submitted: 4, Rewinds: 3},
		Checkpoint: CheckpointStats{Written: 2, Wall: 3 * time.Millisecond},
	}
	lines := strings.Split(strings.TrimSuffix(st.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("String() = %q, want one line per non-zero part (3)", st.String())
	}
	for i, want := range []string{"vm: instructions=205", "spec: submitted=4", "checkpoints: written=2"} {
		if !strings.HasPrefix(lines[i], want) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], want)
		}
	}
	if !strings.Contains(lines[0], "fast-blocks=23 slow-blocks=20") || !strings.Contains(lines[1], "rewinds=3") {
		t.Errorf("String() = %q lacks a counter", st.String())
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.00 KiB"},
		{3 << 20, "3.00 MiB"},
		{5 << 30, "5.00 GiB"},
	}
	for _, tt := range tests {
		if got := FormatBytes(tt.in); got != tt.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestAsciiChart(t *testing.T) {
	series := map[string][]Sample{
		"COB": sampleSeries(50).Samples(),
		"SDS": sampleSeries(10).Samples(),
	}
	chart := AsciiChart("states", series, func(s Sample) float64 { return float64(s.States) }, 40)
	if !strings.Contains(chart, "COB") || !strings.Contains(chart, "SDS") {
		t.Errorf("chart lacks series labels:\n%s", chart)
	}
	// COB (sorted first) must appear before SDS for deterministic output.
	if strings.Index(chart, "COB") > strings.Index(chart, "SDS") {
		t.Error("series not sorted by name")
	}
	if !strings.Contains(chart, "final 50") {
		t.Errorf("chart lacks final value:\n%s", chart)
	}
}

func TestAsciiChartEmpty(t *testing.T) {
	chart := AsciiChart("empty", map[string][]Sample{"X": nil},
		func(s Sample) float64 { return 0 }, 10)
	if !strings.Contains(chart, "X") {
		t.Errorf("chart lacks label for empty series:\n%s", chart)
	}
}

func TestSchedStatsSharedHitRate(t *testing.T) {
	if got := (SchedStats{}).SharedHitRate(); got != 0 {
		t.Errorf("zero-value hit rate = %v, want 0", got)
	}
	s := SchedStats{SharedLookups: 8, SharedHits: 2}
	if got := s.SharedHitRate(); got != 0.25 {
		t.Errorf("hit rate = %v, want 0.25", got)
	}
}

func TestSchedStatsUtilization(t *testing.T) {
	s := SchedStats{
		WorkerBusy: []time.Duration{
			time.Second, 500 * time.Millisecond, 2 * time.Second,
		},
		Elapsed: time.Second,
	}
	got := s.Utilization()
	want := []float64{1, 0.5, 1} // the 2s entry clamps to the makespan
	if len(got) != len(want) {
		t.Fatalf("utilization has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("worker %d utilization = %v, want %v", i, got[i], want[i])
		}
	}
	if mean := s.MeanUtilization(); math.Abs(mean-2.5/3) > 1e-9 {
		t.Errorf("mean utilization = %v, want %v", mean, 2.5/3)
	}
	if got := (SchedStats{WorkerBusy: []time.Duration{time.Second}}).Utilization(); got[0] != 0 {
		t.Errorf("utilization with zero elapsed = %v, want 0", got[0])
	}
}

func TestSchedStatsString(t *testing.T) {
	s := SchedStats{
		Workers: 4, Shards: 9, Steals: 3,
		SharedLookups: 10, SharedHits: 5,
		WorkerBusy: []time.Duration{time.Second, time.Second, time.Second, time.Second},
		Elapsed:    2 * time.Second,
	}
	str := s.String()
	for _, want := range []string{"workers=4", "shards=9", "steals=3", "shared-hit=50%", "util=50%"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
	if off := (SchedStats{}).String(); !strings.Contains(off, "shared-hit=off") {
		t.Errorf("zero-value String() = %q, want shared-hit=off", off)
	}
}

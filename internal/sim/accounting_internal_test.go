package sim

// Modeled-RAM accounting, white-box half: the whole-population walk the
// incremental accounting replaced, kept as the oracle the tests compare
// against (exported to package sim_test below), and the regression guards
// that a sample costs the same whatever the state population.

import (
	"fmt"
	"testing"

	"sde/internal/core"
	"sde/internal/vm"
)

// modelBytesWalk recomputes the footprint from nothing: every state's
// overhead, and every page of every state interned into one table so a
// shared page counts once. It is what modelBytes used to do on
// every sample.
func (e *Engine) modelBytesWalk() MemTerms {
	pt := vm.NewPageTable(e.ctx)
	var terms MemTerms
	for _, s := range e.states {
		terms.Overhead += int64(s.OverheadBytes())
		s.Image(pt)
	}
	terms.Pages = int64(e.cfg.Topo.K())*nodeImageBytes + int64(len(pt.Pages()))*vm.PageBytes
	return terms
}

// ModelBytesWalk exposes the oracle to the black-box tests.
func (e *Engine) ModelBytesWalk() MemTerms { return e.modelBytesWalk() }

// LastSampleMem returns how many samples the engine has taken and the
// footprint the latest one recorded.
func (e *Engine) LastSampleMem() (n int, mem int64) {
	sm, _ := e.series.Last()
	return e.series.Len(), sm.MemBytes
}

// populatedEngine returns an engine holding n states: the booted nodes of a
// small line plus forks of them, each with a private page so the page term
// is not trivial. The forks bypass the mapper, which sample only asks for
// counts.
func populatedEngine(tb testing.TB, n int) *Engine {
	tb.Helper()
	e, err := NewEngine(Config{
		Topo:      NewLine(4),
		Prog:      pingProg(tb),
		Algorithm: core.SDSAlgorithm,
		Horizon:   100,
		NodeInit:  sendToInit(map[int]uint32{0: 1}),
	})
	if err != nil {
		tb.Fatal(err)
	}
	for e.Step() {
	}
	for i := 0; len(e.states) < n; i++ {
		f := e.states[i].Fork()
		f.StoreWord(0x40, e.ctx.Exprs.Const(uint64(i), vm.WordBits))
		e.adopt([]*vm.State{f})
	}
	return e
}

// BenchmarkSample measures one metrics sample with nothing touched since
// the previous one. ns/op must not grow with the state population.
func BenchmarkSample(b *testing.B) {
	for _, n := range []int{1000, 10000, 30000} {
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			e := populatedEngine(b, n)
			e.sample() // absorbs the population
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.sample()
			}
			b.StopTimer()
			if got, want := e.modelBytes(), e.modelBytesWalk(); got != want {
				b.Fatalf("modelBytes = %+v, walk = %+v", got, want)
			}
		})
	}
}

// TestSampleDoesNotAllocate: a sample allocates nothing per call — no
// page-identity map, no per-state scratch — beyond the amortized growth of
// the series it appends to, also while it has touched states to re-measure.
func TestSampleDoesNotAllocate(t *testing.T) {
	e := populatedEngine(t, 2000)
	e.sample()
	// Every state's overhead changes behind the accounting's back; the
	// samples below each learn of one of them.
	for i, s := range e.states {
		s.RecordSend(1, uint64(i), 0)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		e.touch(e.states[i])
		i++
		e.sample()
	})
	if allocs != 0 {
		t.Errorf("sample allocates %v objects per call, want 0", allocs)
	}
	if got, want := e.modelBytes(), e.modelBytesWalk(); got == want {
		t.Error("accounting re-measured states nobody touched; the test no longer exercises the incremental path")
	}
	e.touch(e.states[i:]...)
	if got, want := e.modelBytes(), e.modelBytesWalk(); got != want {
		t.Errorf("modelBytes = %+v, walk = %+v", got, want)
	}
}

// TestTouchedListBounded: the touched list never outgrows the population —
// past that a full sum is cheaper, and a run with sampling off must not
// collect touches for a sample that never comes.
func TestTouchedListBounded(t *testing.T) {
	e := populatedEngine(t, 100)
	for i := 0; i < 1000; i++ {
		e.touch(e.states[i%7])
	}
	if len(e.touched) != 0 {
		t.Errorf("%d touches listed before the first sample, which sums everything anyway", len(e.touched))
	}
	e.sample()
	for i := 0; i < 1000; i++ {
		s := e.states[i%7]
		s.RecordSend(1, uint64(i), 0)
		e.touch(s)
		if len(e.touched) > len(e.states) {
			t.Fatalf("touched list holds %d entries for %d states", len(e.touched), len(e.states))
		}
	}
	if got, want := e.modelBytes(), e.modelBytesWalk(); got != want {
		t.Errorf("modelBytes = %+v, walk = %+v", got, want)
	}
}

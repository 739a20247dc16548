package solver

import (
	"fmt"
	"testing"

	"sde/internal/expr"
)

func TestSpecPoolSubmitOne(t *testing.T) {
	s := New()
	p := NewSpecPool(s, 2)
	defer p.Close()
	b := expr.NewBuilder()
	x := b.Var("x", 8)

	sat := p.SubmitOne([]*expr.Expr{b.Ult(x, b.Const(5, 8))}, b.Ne(x, b.Const(0, 8)))
	unsat := p.SubmitOne([]*expr.Expr{b.Ult(x, b.Const(5, 8))}, b.Eq(x, b.Const(9, 8)))
	sat.Wait()
	unsat.Wait()
	if ok, err := sat.SatTrue(); err != nil || !ok {
		t.Errorf("satisfiable assume: ok=%v err=%v", ok, err)
	}
	if ok, err := unsat.SatTrue(); err != nil || ok {
		t.Errorf("unsatisfiable assume: ok=%v err=%v", ok, err)
	}
	st := p.Stats()
	if st.Submitted != 2 || st.Assumes != 2 || st.Pairs != 0 {
		t.Errorf("stats = %+v, want 2 assume submissions", st)
	}
}

func TestSpecPoolSubmitPair(t *testing.T) {
	s := New()
	p := NewSpecPool(s, 2)
	defer p.Close()
	b := expr.NewBuilder()
	x := b.Var("x", 8)

	// Both sides feasible: x < 5 with x = 3 vs x != 3.
	cond := b.Eq(x, b.Const(3, 8))
	both := p.SubmitPair([]*expr.Expr{b.Ult(x, b.Const(5, 8))}, cond, b.Not(cond))
	both.Wait()
	if ok, err := both.SatTrue(); err != nil || !ok {
		t.Errorf("true side: ok=%v err=%v", ok, err)
	}
	if ok, err := both.SatFalse(); err != nil || !ok {
		t.Errorf("false side: ok=%v err=%v", ok, err)
	}
	if both.Elided() {
		t.Error("both-feasible pair must not be elided")
	}
}

func TestSpecPoolComplementElision(t *testing.T) {
	s := New()
	p := NewSpecPool(s, 1)
	defer p.Close()
	b := expr.NewBuilder()
	x := b.Var("x", 8)

	// True side infeasible under the prefix: x = 3 ∧ x = 4. The false
	// side must be answered by complement elision, not a solve.
	cond := b.Eq(x, b.Const(4, 8))
	pair := p.SubmitPair([]*expr.Expr{b.Eq(x, b.Const(3, 8))}, cond, b.Not(cond))
	pair.Wait()
	if ok, err := pair.SatTrue(); err != nil || ok {
		t.Errorf("true side: ok=%v err=%v, want infeasible", ok, err)
	}
	if ok, err := pair.SatFalse(); err != nil || !ok {
		t.Errorf("false side: ok=%v err=%v, want elided feasible", ok, err)
	}
	if !pair.Elided() {
		t.Error("false side was not elided")
	}
	st := p.Stats()
	if st.Elided != 1 {
		t.Errorf("Elided = %d, want 1", st.Elided)
	}
	if st.Solves != 1 {
		t.Errorf("Solves = %d, want 1 (false side must not be solved)", st.Solves)
	}
}

// TestSpecPoolLIFODrain pins the deepest-first drain order that the whole
// pipeline's performance rests on: when a prefix chain is queued all at
// once, the worker must pop the deepest query first, so that its model,
// pooled, answers every shallower query instead of separate CDCL runs.
// Each level adds a fresh k_i that a model of a shallower level lacks and
// reads as 0, which falsifies acc < k_i: drained shallowest first, every
// level would need a CDCL run of its own. The queue is loaded under the
// pool lock, and the single worker started with it, so the worker cannot
// take a task until every level is in the stack.
func TestSpecPoolLIFODrain(t *testing.T) {
	const depth = 8
	s := New()
	p := NewSpecPool(s, 1)
	defer p.Close()
	b := expr.NewBuilder()

	// An entangled chain: level i asserts sum of m_0..m_i < k_i.
	acc := b.Var("seed", 8)
	prefix := make([]*expr.Expr, 0, depth)
	tasks := make([]*SpecTask, 0, depth)
	p.mu.Lock()
	for i := 0; i < depth; i++ {
		acc = b.Add(acc, b.Var(fmt.Sprintf("m%d", i), 8))
		cond := b.Ult(acc, b.Var(fmt.Sprintf("k%d", i), 8))
		task := &SpecTask{prefix: prefix, cond: cond, done: make(chan struct{})}
		prefix = append(prefix, cond)
		p.stack = append(p.stack, task)
		p.inflight++
		p.stats.Submitted++
		p.stats.Assumes++
		tasks = append(tasks, task)
	}
	p.start()
	p.mu.Unlock()

	for _, task := range tasks {
		task.Wait()
		if ok, err := task.SatTrue(); err != nil || !ok {
			t.Fatalf("chain level: ok=%v err=%v", ok, err)
		}
	}
	if sat := s.Stats().SATCalls; sat != 1 {
		t.Errorf("SATCalls = %d, want 1 (deepest-first drain + model pool)", sat)
	}
	if hits := s.Stats().PoolHits; hits != depth-1 {
		t.Errorf("PoolHits = %d, want %d", hits, depth-1)
	}
}

// TestSpecPoolCancel: canceled tasks must still resolve their done
// channel on drain, and a canceled-before-pickup task is skipped without
// a solve. Cancellation racing a worker is inherently nondeterministic,
// so the only hard assertions are no deadlock and conserved counters.
func TestSpecPoolCancel(t *testing.T) {
	s := New()
	p := NewSpecPool(s, 2)
	b := expr.NewBuilder()
	x := b.Var("x", 8)

	const n = 32
	tasks := make([]*SpecTask, 0, n)
	for i := 0; i < n; i++ {
		task := p.SubmitOne([]*expr.Expr{b.Ult(x, b.Const(200, 8))},
			b.Ne(x, b.Const(uint64(i), 8)))
		task.Cancel()
		tasks = append(tasks, task)
	}
	p.Close() // drains: every task's done channel must be closed
	for _, task := range tasks {
		task.Wait()
	}
	st := p.Stats()
	if st.Submitted != n {
		t.Errorf("Submitted = %d, want %d", st.Submitted, n)
	}
	if st.Solves > n {
		t.Errorf("Solves = %d exceeds submissions", st.Solves)
	}
}

func TestSpecPoolCloseTwice(t *testing.T) {
	s := New()
	p := NewSpecPool(s, 1)
	p.Close()
	p.Close() // must not panic or hang
}

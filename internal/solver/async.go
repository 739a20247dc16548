package solver

import (
	"sync"
	"sync/atomic"

	"sde/internal/expr"
	"sde/internal/metrics"
)

// SpecTask is a pending-verdict token for one speculative feasibility
// query (or query pair) submitted to a SpecPool. The submitter keeps
// executing; Wait blocks until a worker has produced the verdicts.
//
// A pair task decides prefix ∧ cond (the "true side") and, when needed,
// prefix ∧ notCond (the "false side"). The false side is answered by
// complement elision whenever the true side is UNSAT: the engine only
// consumes verdicts whose prefix was feasible (resolution happens in
// creation order, so every provisional constraint in the prefix has been
// confirmed by the time the verdict is read), and a feasible prefix whose
// every model falsifies cond must satisfy ¬cond. Elided verdicts are
// never cached — their validity depends on that resolution-order
// invariant, which caches outlive.
type SpecTask struct {
	prefix  []*expr.Expr
	cond    *expr.Expr
	notCond *expr.Expr // nil for single-query (assume) tasks

	canceled atomic.Bool
	done     chan struct{}

	// Verdicts; valid only after done is closed.
	satT, satF bool
	errT, errF error
	elided     bool
}

// Wait blocks until the task's verdicts are available.
func (t *SpecTask) Wait() { <-t.done }

// SatTrue reports the true-side verdict; call only after Wait.
func (t *SpecTask) SatTrue() (bool, error) { return t.satT, t.errT }

// SatFalse reports the false-side verdict; call only after Wait, and only
// on pair tasks whose true side was error-free.
func (t *SpecTask) SatFalse() (bool, error) { return t.satF, t.errF }

// Elided reports whether the false side was answered by complement
// elision rather than a solve; call only after Wait.
func (t *SpecTask) Elided() bool { return t.elided }

// Cancel marks the task abandoned: a worker that has not started it skips
// the solve entirely. The submitter must not Wait on a canceled task.
func (t *SpecTask) Cancel() { t.canceled.Store(true) }

// SpecPool runs speculative feasibility queries on a pool of solver
// workers. Each worker owns a private incremental CDCL instance and blast
// context (a Solver slot); workers share only the Solver's striped exact
// cache, subsumption index, and model pool — there is no global solver
// mutex on this path.
//
// The task queue is a single shared LIFO stack: the deepest outstanding
// query — whose prefix subsumes every shallower one still queued — is
// solved first, so shallower queries resolve by SAT-superset subsumption
// instead of separate CDCL runs.
type SpecPool struct {
	s *Solver

	mu       sync.Mutex
	cond     *sync.Cond
	stack    []*SpecTask
	closed   bool
	inflight int64
	stats    metrics.SpecStats // the pool's share: workers, submissions, solves, elisions, in-flight peak

	wg sync.WaitGroup
}

// NewSpecPool starts workers goroutines, each with its own solver slot.
// workers < 1 is treated as 1.
func NewSpecPool(s *Solver, workers int) *SpecPool {
	if workers < 1 {
		workers = 1
	}
	p := &SpecPool{s: s, stats: metrics.SpecStats{Workers: workers}}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		slot := s.NewWorkerSlot()
		p.wg.Add(1)
		go p.worker(slot)
	}
	return p
}

// SubmitPair queues a two-sided branch speculation: decide
// prefix ∧ cond and (unless elided) prefix ∧ notCond. The prefix slice
// must not be mutated in place after submission; appending to a larger
// backing array is fine, which is exactly what path conditions do.
func (p *SpecPool) SubmitPair(prefix []*expr.Expr, cond, notCond *expr.Expr) *SpecTask {
	t := &SpecTask{prefix: prefix, cond: cond, notCond: notCond, done: make(chan struct{})}
	p.submit(t, true)
	return t
}

// SubmitOne queues a single-query speculation (an assume): decide
// prefix ∧ cond.
func (p *SpecPool) SubmitOne(prefix []*expr.Expr, cond *expr.Expr) *SpecTask {
	t := &SpecTask{prefix: prefix, cond: cond, done: make(chan struct{})}
	p.submit(t, false)
	return t
}

func (p *SpecPool) submit(t *SpecTask, pair bool) {
	p.mu.Lock()
	p.stack = append(p.stack, t)
	p.inflight++
	p.stats.Submitted++
	if pair {
		p.stats.Pairs++
	} else {
		p.stats.Assumes++
	}
	if p.inflight > p.stats.InflightPeak {
		p.stats.InflightPeak = p.inflight
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// Stats returns a snapshot of the pool's counters; the resolution-side
// fields of the part are the engine's and stay zero here.
func (p *SpecPool) Stats() metrics.SpecStats {
	p.mu.Lock()
	st := p.stats
	p.mu.Unlock()
	return st
}

// Close drains the queue and stops the workers. Safe to call twice.
func (p *SpecPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

func (p *SpecPool) worker(slot *SolverSlot) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.stack) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.stack) == 0 {
			p.mu.Unlock()
			return
		}
		t := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		p.mu.Unlock()
		p.run(slot, t)
	}
}

func (p *SpecPool) run(slot *SolverSlot, t *SpecTask) {
	var solves int64
	elided := false
	if !t.canceled.Load() {
		t.satT, t.errT = p.s.FeasibleOn(slot, t.prefix, t.cond)
		solves++
		if t.notCond != nil && t.errT == nil {
			if !t.satT {
				// Complement elision (see SpecTask): never cached.
				t.satF, t.elided = true, true
				elided = true
			} else if !t.canceled.Load() {
				t.satF, t.errF = p.s.FeasibleOn(slot, t.prefix, t.notCond)
				solves++
			}
		}
	}
	close(t.done)
	p.mu.Lock()
	p.inflight--
	p.stats.Solves += solves
	if elided {
		p.stats.Elided++
	}
	p.mu.Unlock()
}

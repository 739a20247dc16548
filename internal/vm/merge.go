// State merging, VM layer: the mechanics of fusing two sibling states of
// one node into a single merged representative ("rep") whose diverging
// values are ite(Δ, va, vb) expressions, and of reconstructing the exact
// member states later by substituting each member's side back through the
// rep's machine (expr.Substitute). The merge *policy* — which states to
// fuse, when to split — lives in internal/merge; this file only provides
// the state surgery and the execution intercepts.
//
// A rep executes its members' shared events once. Every branch decision on
// the rep is resolved purely structurally: the condition is substituted
// per member, and only a verdict that is the same constant for every
// member lets the rep continue. Anything else — a genuinely symbolic
// condition, member-dependent control flow, or an instruction whose
// effects escape the state (send, assert, a symbolic address or delay) —
// splits the rep back into its exact members first. Reps therefore never
// query the solver, never fork, and never speculate; their path condition
// (common prefix + disjunction of the member deltas) exists only for
// representation and snapshots.
package vm

import (
	"sde/internal/expr"
	"sde/internal/isa"
)

// MergeVerdict is the outcome of a merged-execution control decision.
type MergeVerdict uint8

// Merged-execution verdicts.
const (
	// MergeFoldTrue: the condition substitutes to constant true for every
	// member; the rep takes the true side without touching any path
	// condition (each member's own condition is structurally true, exactly
	// as in its unmerged run).
	MergeFoldTrue MergeVerdict = iota + 1
	// MergeFoldFalse: constant false for every member.
	MergeFoldFalse
	// MergeSplit: the members disagree (or the condition stays symbolic);
	// the manager has already reconstructed the members at the current
	// instruction and discarded the rep, which is no longer Running.
	MergeSplit
)

// MergeHooks receives merged-execution control decisions. Implemented by
// the merge manager (internal/merge); when unset, no state is ever marked
// as a merged rep and the intercepts below are dead code.
type MergeHooks interface {
	// MergedBranch resolves a conditional branch on a rep. FoldTrue and
	// FoldFalse mean every member agrees on that constant direction; on
	// MergeSplit the members have been re-materialized mid-event (they
	// re-execute the branch themselves) and the rep is discarded.
	MergedBranch(s *State, cond *expr.Expr) MergeVerdict
	// MergedCheck resolves an assume or assert condition on a rep:
	// MergeFoldTrue means the condition is constant true for every member
	// (the instruction is a no-op on each of them); any other outcome has
	// split the rep so the members handle the instruction individually
	// (solver queries, witness models, or deaths — per member, exactly as
	// unmerged).
	MergedCheck(s *State, cond *expr.Expr) MergeVerdict
	// MergedBarrier is called before an instruction a rep must never
	// execute (send, symbolic address/delay). It splits unconditionally;
	// afterwards s is no longer Running.
	MergedBarrier(s *State)
}

// SetMergeHooks installs the merge manager. Passing nil disables merged
// execution (no new reps can be marked; existing ones must be gone).
func (c *Context) SetMergeHooks(h MergeHooks) { c.merge = h }

// IsMergedRep reports whether this state is a live merged representative.
func (s *State) IsMergedRep() bool { return s.merged }

// MergeSiteKind classifies a divergence site between two mergeable states.
type MergeSiteKind uint8

// Divergence-site kinds.
const (
	MergeSiteReg    MergeSiteKind = iota + 1 // register Index
	MergeSiteMem                             // memory word Addr
	MergeSiteEvArg                           // pending event Index, timer argument
	MergeSiteEvData                          // pending event Index, payload word Word
	MergeSiteTrace                           // trace entry Index value
)

// MergeSite is one location where two otherwise identical states hold
// different symbolic values.
type MergeSite struct {
	Kind  MergeSiteKind
	Index int    // register, event, or trace index
	Word  int    // payload word within the event (MergeSiteEvData)
	Addr  uint32 // word address (MergeSiteMem)
	A, B  *expr.Expr
}

// MergeDiff is the bounded divergence set of a candidate pair.
type MergeDiff struct {
	Sites []MergeSite
}

// MergeClassHash buckets states that could possibly merge: everything a
// merge must find equal — program position, event-queue shape, counters,
// communication history, trace shape, register nil-mask — hashed into one
// key. Divergeable values (registers, memory, event payloads, trace
// values) are deliberately excluded.
func (s *State) MergeClassHash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
		h ^= h >> 29
	}
	mix(uint64(s.node))
	mix(uint64(s.status))
	mix(uint64(int64(s.fn)))
	mix(uint64(int64(s.pc)))
	for _, fr := range s.frames {
		mix(uint64(fr.fn))
		mix(uint64(fr.pc))
	}
	var nilMask uint64
	for i, r := range s.regs {
		if r == nil {
			nilMask |= 1 << uint(i)
		}
	}
	mix(nilMask)
	mix(s.eventSeq)
	for i := range s.events {
		ev := &s.events[i]
		mix(ev.Time)
		mix(uint64(ev.Kind))
		mix(uint64(int64(ev.Fn)))
		mix(uint64(ev.Src))
		mix(ev.seq)
		mix(uint64(len(ev.Data)))
		if ev.Arg == nil {
			mix(1)
		}
	}
	mix(uint64(s.sendSeq))
	mix(uint64(s.recvSeq))
	mix(uint64(s.symSeq))
	mix(uint64(len(s.hist)))
	mix(s.HistoryHash())
	mix(uint64(len(s.trace)))
	for _, te := range s.trace {
		mix(te.Time)
		for _, c := range te.Msg {
			mix(uint64(c))
		}
	}
	return h
}

// DiffMergeable checks whether a and b are structurally mergeable — same
// node, same lifecycle status (idle or halted), same program position,
// event-queue shape, counters, and communication history — and collects
// the bounded set of locations where their symbolic values differ. It
// returns (nil, false) when the states are not mergeable or diverge at
// more than maxSites locations. Memory words are compared with the same
// nil ≡ const-0 normalization the fingerprint uses, so layouts differing
// only in dirty-zero words do not produce sites.
func DiffMergeable(a, b *State, maxSites int) (*MergeDiff, bool) {
	if a == b || a.node != b.node || a.status != b.status || a.runErr != nil || b.runErr != nil {
		return nil, false
	}
	if a.status != StatusIdle && a.status != StatusHalted {
		return nil, false
	}
	if a.fn != b.fn || a.pc != b.pc || len(a.frames) != len(b.frames) {
		return nil, false
	}
	for i := range a.frames {
		if a.frames[i] != b.frames[i] {
			return nil, false
		}
	}
	if a.sendSeq != b.sendSeq || a.recvSeq != b.recvSeq || a.symSeq != b.symSeq {
		return nil, false
	}
	if a.eventSeq != b.eventSeq || len(a.events) != len(b.events) {
		return nil, false
	}
	if len(a.hist) != len(b.hist) || len(a.trace) != len(b.trace) {
		return nil, false
	}
	for i := range a.hist {
		if a.hist[i] != b.hist[i] {
			return nil, false
		}
	}
	d := &MergeDiff{}
	add := func(site MergeSite) bool {
		if len(d.Sites) >= maxSites {
			return false
		}
		d.Sites = append(d.Sites, site)
		return true
	}
	for i := range a.events {
		ea, eb := &a.events[i], &b.events[i]
		if ea.Time != eb.Time || ea.Kind != eb.Kind || ea.Fn != eb.Fn ||
			ea.Src != eb.Src || ea.seq != eb.seq || len(ea.Data) != len(eb.Data) {
			return nil, false
		}
		if (ea.Arg == nil) != (eb.Arg == nil) {
			return nil, false
		}
		if ea.Arg != eb.Arg {
			if !add(MergeSite{Kind: MergeSiteEvArg, Index: i, A: ea.Arg, B: eb.Arg}) {
				return nil, false
			}
		}
		for j := range ea.Data {
			if ea.Data[j] != eb.Data[j] {
				if !add(MergeSite{Kind: MergeSiteEvData, Index: i, Word: j, A: ea.Data[j], B: eb.Data[j]}) {
					return nil, false
				}
			}
		}
	}
	for i := range a.trace {
		ta, tb := &a.trace[i], &b.trace[i]
		if ta.Time != tb.Time || ta.Msg != tb.Msg || (ta.Val == nil) != (tb.Val == nil) {
			return nil, false
		}
		if ta.Val != tb.Val {
			if !add(MergeSite{Kind: MergeSiteTrace, Index: i, A: ta.Val, B: tb.Val}) {
				return nil, false
			}
		}
	}
	for i := range a.regs {
		ra, rb := a.regs[i], b.regs[i]
		// Register nil-ness is fingerprint-visible (a never-written
		// register hashes differently from an explicit zero), so it must
		// match exactly rather than be normalized away.
		if (ra == nil) != (rb == nil) {
			return nil, false
		}
		if ra != rb {
			if !add(MergeSite{Kind: MergeSiteReg, Index: i, A: ra, B: rb}) {
				return nil, false
			}
		}
	}
	if !diffMemory(a, b, d, maxSites) {
		return nil, false
	}
	if len(d.Sites) == 0 {
		// Identical machines: nothing to fuse, and no delta could ever
		// tell the members apart at split time. Leave exact duplicates to
		// the mapping algorithms.
		return nil, false
	}
	return d, true
}

// diffMemory walks the union of both states' COW pages, in page order.
// Pages shared by pointer are identical by construction; distinct pages are
// compared word-wise with nil ≡ const 0.
func diffMemory(a, b *State, d *MergeDiff, maxSites int) bool {
	zero := a.ctx.zeroWord
	norm := func(w *expr.Expr) *expr.Expr {
		if w == nil {
			return zero
		}
		return w
	}
	// diffPage compares page idx of both sides; nil stands for a page one
	// side does not have.
	diffPage := func(idx uint32, pa, pb *page) bool {
		if pa == pb {
			return true
		}
		for wi := 0; wi < pageWords; wi++ {
			var wa, wb *expr.Expr
			if pa != nil {
				wa = pa.words[wi]
			}
			if pb != nil {
				wb = pb.words[wi]
			}
			na, nb := norm(wa), norm(wb)
			if na == nb {
				continue
			}
			if len(d.Sites) >= maxSites {
				return false
			}
			d.Sites = append(d.Sites, MergeSite{
				Kind: MergeSiteMem,
				Addr: idx<<pageShift | uint32(wi),
				A:    na,
				B:    nb,
			})
		}
		return true
	}
	sa, sb := a.mem.slots, b.mem.slots
	for len(sa) > 0 || len(sb) > 0 {
		var ok bool
		switch {
		case len(sb) == 0 || (len(sa) > 0 && sa[0].idx < sb[0].idx):
			ok = diffPage(sa[0].idx, sa[0].p, nil)
			sa = sa[1:]
		case len(sa) == 0 || sb[0].idx < sa[0].idx:
			ok = diffPage(sb[0].idx, nil, sb[0].p)
			sb = sb[1:]
		default:
			ok = diffPage(sa[0].idx, sa[0].p, sb[0].p)
			sa, sb = sa[1:], sb[1:]
		}
		if !ok {
			return false
		}
	}
	return true
}

// FuseStates builds the merged representative of a and b: a copy of a
// whose divergence sites are replaced by ite(delta, va, vb) nodes, where
// delta is true exactly on a's side (the conjunction of a's path-condition
// suffix past the common prefix). The rep keeps a's id — a is always the
// smaller-id side, so the rep occupies a's scheduling slot. The returned
// substitution maps resolve each introduced ite node back to the matching
// member's arm; applying subA (subB) to any rep value through
// expr.Substitute reconstructs a's (b's) value pointer-identically.
//
// The rep's path condition must be installed separately by the caller via
// MergeSetPathCond (the policy layer computed delta from the members'
// path conditions and owns that representation).
func FuseStates(a, b *State, delta *expr.Expr, d *MergeDiff) (rep *State, subA, subB map[*expr.Expr]*expr.Expr) {
	rep = a.SpecFork()
	rep.id = a.id
	rep.merged = true
	eb := a.ctx.Exprs
	subA = make(map[*expr.Expr]*expr.Expr, len(d.Sites))
	subB = make(map[*expr.Expr]*expr.Expr, len(d.Sites))
	dataCopied := make(map[int]bool)
	// SpecFork shares the trace with a (and a's other forks); the rep
	// rewrites entries, so it takes its own copy first.
	rep.trace = append([]TraceEntry(nil), rep.trace...)
	for _, site := range d.Sites {
		ite := eb.Ite(delta, site.A, site.B)
		// A fold (delta constant or equal arms) cannot happen for a real
		// divergence site, but guard anyway: an ite that collapsed to one
		// arm cannot key a substitution.
		if ite != site.A && ite != site.B {
			subA[ite] = site.A
			subB[ite] = site.B
		}
		switch site.Kind {
		case MergeSiteReg:
			rep.regs[site.Index] = ite
		case MergeSiteMem:
			rep.mem.store(site.Addr, ite)
		case MergeSiteEvArg:
			rep.events[site.Index].Arg = ite
		case MergeSiteEvData:
			// SpecFork copies the event structs but shares their payload
			// slices with a; detach before mutating.
			if !dataCopied[site.Index] {
				ev := &rep.events[site.Index]
				ev.Data = append([]*expr.Expr(nil), ev.Data...)
				dataCopied[site.Index] = true
			}
			rep.events[site.Index].Data[site.Word] = ite
		case MergeSiteTrace:
			rep.trace[site.Index].Val = ite
		}
	}
	return rep, subA, subB
}

// MergeSetPathCond installs the rep's path condition (common member prefix
// plus the disjoined deltas). Reps never query the solver, so this exists
// for representation and snapshots.
func (s *State) MergeSetPathCond(pc []*expr.Expr) {
	s.pathCond = pc
	s.forgetBound()
}

// MarkMergedRep flags a checkpoint-restored state as a live merged rep.
func (s *State) MarkMergedRep() { s.merged = true }

// MergeFreeze dissolves a member's machine after it has been fused into a
// rep: memory pages are released and the value-bearing structures cleared,
// so the frozen member costs only its bookkeeping (path condition,
// history) while the rep carries the one shared machine.
// The member's path condition, history, and counters stay — they are
// frozen facts the split does not need to reconstruct. With no pending
// events the scheduler never picks a frozen member up.
func (s *State) MergeFreeze() {
	s.mem.release()
	for i := range s.regs {
		s.regs[i] = nil
	}
	s.events = nil
	s.trace = nil
	s.frames = nil
}

// MergeDiscard retires a rep whose members have been re-materialized (or
// absorbed into a larger rep). The state object is dead afterwards; a
// halted status makes any stale scheduler entry skip it.
func (s *State) MergeDiscard() {
	s.status = StatusHalted
	s.merged = false
	s.mem.release()
	s.events = nil
	s.trace = nil
	for i := range s.regs {
		s.regs[i] = nil
	}
}

// AdoptMergedMachine reconstructs this (frozen) member's machine from the
// rep by substituting the member's side through every value: registers,
// memory (pages the substitution leaves untouched are re-shared with the
// rep; changed pages are rebuilt), pending events, and the trace. Control
// position, status, and counters are copied from the rep; the member's
// own path condition and history were never dissolved and remain in
// place. extraSteps is the member's share of instructions
// the rep executed on its behalf.
//
// Substitution rebuilds through the expression builder's smart
// constructors, so every reconstructed value is pointer-identical to what
// the member's own unmerged execution would have produced — fingerprints,
// future constraints, and test cases are bit-for-bit those of an unmerged
// run.
func (s *State) AdoptMergedMachine(rep *State, sub, memo map[*expr.Expr]*expr.Expr, extraSteps uint64) {
	eb := s.ctx.Exprs
	subst := func(e *expr.Expr) *expr.Expr {
		if e == nil {
			return nil
		}
		return eb.Substitute(e, sub, memo)
	}
	for i, r := range rep.regs {
		s.regs[i] = subst(r)
	}
	s.mem = newMemory(s.ctx)
	s.mem.slots = make([]pageSlot, 0, len(rep.mem.slots))
	for _, sl := range rep.mem.slots {
		p := sl.p
		var words [pageWords]*expr.Expr
		changed := false
		for wi, w := range p.words {
			if w == nil {
				continue
			}
			nw := subst(w)
			words[wi] = nw
			if nw != w {
				changed = true
			}
		}
		if changed {
			p = s.mem.newPage()
			p.words = words
		} else {
			p.ref++
		}
		s.mem.slots = append(s.mem.slots, pageSlot{idx: sl.idx, p: p})
	}
	s.frames = append([]frame(nil), rep.frames...)
	s.fn, s.pc = rep.fn, rep.pc
	s.status = rep.status
	s.runErr = rep.runErr
	s.events = make([]Event, len(rep.events))
	for i, ev := range rep.events {
		ev.Arg = subst(ev.Arg)
		if len(ev.Data) > 0 {
			data := make([]*expr.Expr, len(ev.Data))
			for j, w := range ev.Data {
				data[j] = subst(w)
			}
			ev.Data = data
		}
		s.events[i] = ev
	}
	s.eventSeq = rep.eventSeq
	s.trace = make([]TraceEntry, len(rep.trace))
	for i, te := range rep.trace {
		te.Val = subst(te.Val)
		s.trace[i] = te
	}
	s.sendSeq, s.recvSeq, s.symSeq = rep.sendSeq, rep.recvSeq, rep.symSeq
	s.steps += extraSteps
}

// mergedBarrierOp reports whether a rep must split before executing in:
// instructions whose effects escape the state (OpSend) or that need a
// concrete operand the rep may only hold as a member-dependent ite
// (addresses, timer delays). OpAssert and the branches are handled by
// their own fold-capable intercepts.
func (s *State) mergedBarrierOp(in *isa.Instr) bool {
	switch in.Op {
	case isa.OpSend:
		return true
	case isa.OpLoad, isa.OpStore:
		r := s.regs[in.Ra]
		return r != nil && !r.IsConst()
	case isa.OpTimer:
		r := s.regs[in.Ra]
		return r != nil && !r.IsConst()
	}
	return false
}

// Package vm implements the symbolic virtual machine that executes isa
// programs. It plays the role KLEE plays in the paper: it runs unmodified
// node software on symbolic input, forks execution states at symbolic
// branches, accumulates path constraints, and exposes forkable, copy-on-
// write state so the distributed layer (package core) can duplicate states
// cheaply during state mapping.
package vm

import (
	"strconv"
	"sync/atomic"

	"sde/internal/expr"
	"sde/internal/isa"
	"sde/internal/metrics"
	"sde/internal/solver"
)

// WordBits is the machine word size in bits. It is defined by the ISA:
// the load-time constant folder (isa.EvalALU) and the symbolic ALU here
// must agree on it exactly.
const WordBits = isa.WordBits

// Context holds the machinery shared by all states of one SDE run: the
// expression builder, the constraint solver, and the state id allocator.
type Context struct {
	Exprs  *expr.Builder
	Solver *solver.Solver

	// Replay, when non-nil, switches the VM into concrete replay mode:
	// symbolic inputs evaluate to their value in this environment
	// (missing entries are 0, matching the solver's don't-care
	// convention), so execution follows exactly one path — the paper's
	// "concrete inputs and deterministic schedules" for post-mortem
	// analysis.
	Replay expr.Env

	// Speculate turns on speculative branch forking (see spec.go): at a
	// symbolic branch or assume execution runs on down the true side, and
	// the feasibility queries are decided at the next resolution barrier.
	// pending lists the running state's unresolved speculations in creation
	// order; specStats counts them.
	Speculate bool
	pending   []specEntry
	specStats metrics.SpecStats

	// compile gates the compiled-IR concrete fast path (see fastpath.go).
	// The IR itself is always built — the event dispatcher's register
	// read-set optimisation uses it unconditionally — but with compile
	// off every instruction runs through the per-instruction
	// interpreter, which is the soundness-triage configuration.
	compile bool

	// zeroWord caches the concrete-zero word expression so the event
	// dispatcher does not take the builder lock for every register of
	// every event.
	zeroWord *expr.Expr

	nextStateID atomic.Uint64
	instrCount  atomic.Uint64
	forkCount   atomic.Uint64

	// livePages counts the memory pages some state of this context still
	// references — the page term of the modeled RAM, kept by memory.newPage
	// and memory.release. States run on the engine's goroutine only, so it
	// needs no synchronization.
	livePages int64

	// pageTables counts the PageTables built over this context's states;
	// each numbers the pages it sees with its own count as the epoch (see
	// page.tableEpoch).
	pageTables uint64

	// Fast-path telemetry: block executions taken by the concrete
	// straight-line path, block entries that fell back to the
	// interpreter, and instructions answered from load-time constant
	// folding.
	fastBlocks   atomic.Uint64
	slowBlocks   atomic.Uint64
	foldedInstrs atomic.Uint64
}

// NewContext returns a fresh context with its own expression builder and
// solver.
func NewContext() *Context {
	return NewContextWithSolver(expr.NewBuilder(), solver.Options{})
}

// NewContextWithSolver returns a fresh context on expression builder eb
// whose solver uses the given tuning — the injection point for a
// cross-run solver.SharedCache (parallel shards) and a conflict budget.
func NewContextWithSolver(eb *expr.Builder, opts solver.Options) *Context {
	return &Context{
		Exprs:    eb,
		Solver:   solver.NewWithOptions(opts),
		compile:  true,
		zeroWord: eb.Const(0, WordBits),
	}
}

// SetCompiledIR enables or disables the compiled-IR concrete fast path
// (on by default). Disabling it forces every instruction through the
// per-instruction interpreter — the first soundness-triage step when a
// run looks wrong, since the fast path preserves fingerprints, forks,
// and test cases bit-for-bit.
func (c *Context) SetCompiledIR(on bool) { c.compile = on }

// Instructions returns the total number of instructions executed by all
// states of this context.
func (c *Context) Instructions() uint64 { return c.instrCount.Load() }

// Stats returns the context's counters: the VM part of the run's
// metrics.RunStats.
func (c *Context) Stats() metrics.VMStats {
	return metrics.VMStats{
		Instructions: c.instrCount.Load(),
		Forks:        c.forkCount.Load(),
		FastBlocks:   c.fastBlocks.Load(),
		SlowBlocks:   c.slowBlocks.Load(),
		FoldedInstrs: c.foldedInstrs.Load(),
	}
}

// LivePages returns the number of distinct memory pages referenced by at
// least one state of this context that has not been Released.
func (c *Context) LivePages() int64 { return c.livePages }

func (c *Context) newStateID() uint64 { return c.nextStateID.Add(1) }

// --- copy-on-write memory ---------------------------------------------------

// Pages are small (64 words) because node memories are sparse — a node
// touches a handful of config, packet-buffer, and counter regions. A page
// holds node ids of the context's expression builder, not pointers: every
// node a page could point at is kept alive by the builder's intern table
// for the whole run anyway, and a pointer-free page is one the garbage
// collector never scans, though the resident pages of every forked state
// are much of a big run's heap.
const (
	pageShift = 6
	pageWords = 1 << pageShift // 64 words per page
	pageMask  = pageWords - 1
)

// PageBytes is the size of one memory page, used for the RAM accounting
// that reproduces the paper's memory curves: 4 bytes per word, which is
// also what a page occupies.
const PageBytes = pageWords * 4

// page is a run of words, each an expr node id of the context's builder
// (Builder.Node resolves it); 0 is an untouched word, which reads as
// concrete zero. A word explicitly written to zero holds the id of its
// constant, so an untouched word and a dirty zero stay distinguishable.
// tableIdx is the page's number in the PageTable whose epoch is tableEpoch,
// the one stamp a snapshot needs to share a page without a map; a copy-on-
// write split copies the words only, so a fresh page carries no stamp. The
// stamp follows the words, which keep the offset the VM's loads and stores
// have always used. hash memoizes the page's term of the fingerprint while
// hashed is set: a store clears it, and a page made by a split or a restore
// starts without it, so a fingerprint rehashes only the pages written since
// the last one. A page is written only while it is unshared, so the memo
// holds for every state that shares it.
type page struct {
	ref        int32
	words      [pageWords]uint32
	tableIdx   uint32
	tableEpoch uint64
	hash       uint64
	hashed     bool
}

// pageSlot is one entry of a state's page table.
type pageSlot struct {
	idx uint32 // page number within the address space
	p   *page
}

// memory is a copy-on-write paged store of symbolic words; unwritten
// words read as concrete 0. slots is the page table, sorted by page number
// and owned by this memory alone (only the pages behind it are shared): a
// state holds a handful of pages, so a fork copies one small slice, a lookup
// is a short binary search, and the fingerprint and the snapshot walk the
// pages in address order with nothing to sort. live is the context's
// live-page counter.
type memory struct {
	slots []pageSlot
	live  *int64
}

func newMemory(ctx *Context) memory {
	return memory{live: &ctx.livePages}
}

// newPage returns a zeroed page holding one reference and counts it live;
// every page is born here.
func (m *memory) newPage() *page {
	*m.live++
	return &page{ref: 1}
}

// find returns the position of page idx in the table, or the position it
// would be inserted at and false.
func (m *memory) find(idx uint32) (int, bool) {
	lo, hi := 0, len(m.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.slots[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.slots) && m.slots[lo].idx == idx
}

func (m *memory) clone() memory {
	if len(m.slots) == 0 {
		return memory{live: m.live}
	}
	slots := make([]pageSlot, len(m.slots))
	copy(slots, m.slots)
	for _, sl := range slots {
		sl.p.ref++
	}
	return memory{slots: slots, live: m.live}
}

// load returns the node id stored at addr, 0 if the word is untouched.
func (m *memory) load(addr uint32) uint32 {
	i, ok := m.find(addr >> pageShift)
	if !ok {
		return 0
	}
	return m.slots[i].p.words[addr&pageMask]
}

// store writes node id v (0: back to untouched) at addr, splitting a shared
// page first.
func (m *memory) store(addr uint32, v uint32) {
	idx := addr >> pageShift
	i, ok := m.find(idx)
	var p *page
	switch {
	case !ok:
		p = m.newPage()
		m.slots = append(m.slots, pageSlot{})
		copy(m.slots[i+1:], m.slots[i:])
		m.slots[i] = pageSlot{idx: idx, p: p}
	case m.slots[i].p.ref > 1:
		shared := m.slots[i].p
		p = m.newPage()
		p.words = shared.words
		shared.ref--
		m.slots[i].p = p
	default:
		p = m.slots[i].p
	}
	p.words[addr&pageMask] = v
	p.hashed = false
}

// release drops this memory's page references; a page whose last reference
// goes leaves the live count. A second release finds no pages: a no-op.
func (m *memory) release() {
	for _, sl := range m.slots {
		if sl.p.ref--; sl.p.ref == 0 {
			*m.live--
		}
	}
	m.slots = nil
}

// --- events -----------------------------------------------------------------

// EventKind distinguishes scheduled event types.
type EventKind uint8

// Event kinds.
const (
	EventBoot EventKind = iota + 1
	EventTimer
	EventRecv
)

// Event is a pending activation of an event handler on a node state, the
// unit of work of the discrete-event execution model (paper §IV: "in each
// step KleeNet executes an event of a node and advances the time").
type Event struct {
	Time uint64
	Kind EventKind
	Fn   int          // handler function index
	Arg  *expr.Expr   // timer argument (R0)
	Src  uint32       // recv: sending node id
	Data []*expr.Expr // recv: payload words
	seq  uint64       // insertion order, for stable sorting
}

// --- communication history ---------------------------------------------------

// Dir is the direction of a communication-history entry.
type Dir uint8

// History entry directions.
const (
	DirSent Dir = iota + 1
	DirRecv
)

// HistEntry records one packet in a state's communication history
// (paper §II-B). Histories are not needed by the mapping algorithms — they
// are maintained for state fingerprints, duplicate detection, and the
// conflict-freedom invariant checks in tests.
//
// The paper assumes "all packets that are exchanged in the network are
// unique and distinguishable from each other". Wall-clock-free uniqueness
// is provided by SenderFP: the transmitting state's configuration
// fingerprint at send time, which separates otherwise identical
// transmissions made by different sender states (same payload, time, and
// sequence number) without introducing run-order-dependent identifiers.
type HistEntry struct {
	Dir      Dir
	Peer     uint32 // other endpoint's node id
	Time     uint64 // virtual time of the transmission
	Seq      uint32 // sender-side per-state transmission sequence number
	Payload  uint64 // hash of the payload words
	SenderFP uint64 // received packets: sender configuration fingerprint
}

// TraceEntry is one Print output.
type TraceEntry struct {
	Time uint64
	Msg  string
	Val  *expr.Expr
}

// Violation records a failed assertion together with a concrete test case
// reaching it.
type Violation struct {
	Node int
	Time uint64
	Msg  string
	// Model holds concrete input values reproducing the violation. The VM
	// leaves it nil; the hooks fill it (Hooks.OnViolation) with the
	// witness of Cond and the path conditions it knows — the distributed
	// engine uses the violating state's whole dscenario, so the witness
	// also fixes the other nodes' decisions.
	Model   expr.Env
	StateID uint64
	// Cond is the violation constraint: the negated assertion condition.
	// It is nil on violations that record a dead state rather than an
	// assertion.
	Cond *expr.Expr
}

// --- state -------------------------------------------------------------------

// Status describes a state's lifecycle phase.
type Status uint8

// State statuses.
const (
	StatusIdle    Status = iota + 1 // quiescent, waiting for its next event
	StatusRunning                   // mid-event, on the engine's run stack
	StatusHalted                    // executed Halt; permanently inactive
	StatusDead                      // infeasible Assume or runtime error
)

// State is one symbolic execution state of one node: registers, memory,
// call stack, path condition, pending events, and communication history.
// States are forked on symbolic branches and by the state-mapping
// algorithms. A State is a header — its id, its node, its settled overhead
// and a body — and the body holds everything else. A fork allocates only
// the header and shares its parent's body, reference-counted; every write
// goes through own, which gives the writer a body of its own first (see
// own). Bodies in turn share memory pages copy-on-write, and their past —
// path condition, history, trace — until one of them appends to it.
type State struct {
	id      uint64
	node    int
	settled int // OverheadBytes as of the last SettleOverhead
	*body
}

// body is everything of a state but its identity. It is read by every
// state that shares it and written only through a holder that owns it
// alone (ref == 1).
type body struct {
	ctx  *Context
	prog *isa.Program

	regs   [isa.NumRegs]*expr.Expr
	mem    memory
	frames []frame // return addresses; the active (fn, pc) is separate
	fn, pc int

	ref    int32 // the headers sharing this body
	status Status
	runErr error
	// pathCond, hist and trace are append-only lists a body shares with
	// the bodies copied from it (see own): elements below len are never
	// written, and every edit that is not an append installs a fresh or
	// capped slice.
	pathCond []*expr.Expr

	events   []Event // sorted by (Time, seq); owned by this body alone
	eventSeq uint64

	hist    []HistEntry
	trace   []TraceEntry
	sendSeq uint32 // per-state transmission counter (packet identity)
	recvSeq uint32 // per-state reception counter (failure-model naming)
	symSeq  uint32 // per-state symbolic-input counter (input naming)

	steps uint64 // instructions executed by this state (incl. inherited)
}

type frame struct {
	fn, pc int
}

// NewState creates the initial, quiescent state of a node running prog,
// with a boot event scheduled at the given time if bootFn is non-negative.
func NewState(ctx *Context, prog *isa.Program, node int) *State {
	return &State{
		id:   ctx.newStateID(),
		node: node,
		body: &body{
			ctx:    ctx,
			prog:   prog,
			mem:    newMemory(ctx),
			ref:    1,
			status: StatusIdle,
			fn:     -1,
		},
	}
}

// ID returns the state's unique id within its context. Ids are assigned in
// creation order and never reused.
func (s *State) ID() uint64 { return s.id }

// NodeID returns the id of the node this state belongs to.
func (s *State) NodeID() int { return s.node }

// Status returns the state's lifecycle status.
func (s *State) Status() Status { return s.status }

// Err returns the error that killed the state, if any.
func (s *State) Err() error { return s.runErr }

// Steps returns the number of instructions this state has executed,
// including those executed before any fork that produced it.
func (s *State) Steps() uint64 { return s.steps }

// PathCond returns the state's path condition (shared slice; callers must
// not modify it).
func (s *State) PathCond() []*expr.Expr { return s.pathCond }

// History returns the state's communication history (shared slice;
// callers must not modify it).
func (s *State) History() []HistEntry { return s.hist }

// Trace returns the state's diagnostic Print log.
func (s *State) Trace() []TraceEntry { return s.trace }

// Reg returns the current value of a register.
func (s *State) Reg(r isa.Reg) *expr.Expr { return s.regs[r] }

// Fork returns a copy of the state with a fresh id; everything else,
// including the pending event queue and the communication history, is
// identical. The copy is one allocation, a header sharing the state's body:
// whichever of them writes first takes a body of its own (own). A fork
// starts without its parent's error, as a dead state's copy always has.
func (s *State) Fork() *State {
	n := s.fork()
	n.adoptFreshID()
	return n
}

// fork is Fork without an id and without counting a fork: a frozen
// speculative sibling until adoptFreshID.
func (s *State) fork() *State {
	s.ref++
	n := &State{node: s.node, body: s.body}
	if s.runErr != nil {
		n.own()
		n.runErr = nil
	}
	return n
}

// own gives s a body no other state shares, before s writes to it. A body
// shared by other states is copied: the writer takes the copy, which keeps
// the body's arrays and their spare capacity, and the states still sharing
// the old body keep capped views of the path condition, history and trace
// and fresh copies of the page table, call stack and event queue. This is
// what keeps one appender per array: a capped view reallocates on its first
// append, so only the writer can append in place, beyond the length of every
// other view — the aliasing pending speculations' prefixes rely on too. The
// call stack and event queue are written in place (BeginEvent, StartCall and
// Reboot cut the stack to [:0] and append), so they are never shared.
// Payload slices of queued events stay shared; nothing writes through them.
func (s *State) own() {
	if s.ref != 1 {
		s.unshare()
	}
}

// unshare is own's copy of a shared body, kept out of line so that own
// inlines into every mutator.
func (s *State) unshare() {
	b := s.body
	w := new(body)
	*w = *b
	w.ref = 1
	b.ref--
	b.pathCond = b.pathCond[:len(b.pathCond):len(b.pathCond)]
	b.hist = b.hist[:len(b.hist):len(b.hist)]
	b.trace = b.trace[:len(b.trace):len(b.trace)]
	b.mem = b.mem.clone()
	b.frames = detached(b.frames)
	b.events = detached(b.events)
	s.body = w
}

// detached returns a copy of xs that shares no array with it, nil if xs is
// empty.
func detached[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	return append([]T(nil), xs...)
}

// Release drops the state's reference to its body, and the body's to its
// memory pages when it was the last. It never allocates. The state must not
// be used afterwards; releasing it again is harmless.
func (s *State) Release() {
	b := s.body
	if b == nil {
		return
	}
	s.body = nil
	if b.ref--; b.ref == 0 {
		b.mem.release()
	}
}

// --- event queue -------------------------------------------------------------

// PushEvent schedules an event on this state. The queue is ordered by
// (Time, seq) and the new event carries the largest seq, so it goes behind
// every event that is not later than it.
func (s *State) PushEvent(ev Event) {
	s.own()
	ev.seq = s.eventSeq
	s.eventSeq++
	i := len(s.events)
	for i > 0 && s.events[i-1].Time > ev.Time {
		i--
	}
	s.events = append(s.events, Event{})
	copy(s.events[i+1:], s.events[i:])
	s.events[i] = ev
}

// NextEventTime returns the time of the earliest pending event.
func (s *State) NextEventTime() (uint64, bool) {
	if len(s.events) == 0 || s.status == StatusHalted || s.status == StatusDead {
		return 0, false
	}
	return s.events[0].Time, true
}

// PendingEvents returns the number of queued events.
func (s *State) PendingEvents() int { return len(s.events) }

// popEvent removes and returns the earliest event. The vacated slot is
// zeroed so the queue's spare capacity does not keep a payload alive.
func (s *State) popEvent() Event {
	s.own()
	ev := s.events[0]
	n := copy(s.events, s.events[1:])
	s.events[n] = Event{}
	s.events = s.events[:n]
	return ev
}

// --- memory and register helpers ---------------------------------------------

func (s *State) loadWord(addr uint32) *expr.Expr {
	if id := s.mem.load(addr); id != 0 {
		return s.ctx.Exprs.Node(id)
	}
	return s.ctx.zeroWord
}

// StoreWord writes a word; exported for runtime initialisation (routing
// tables, node configuration) before execution starts. v must come from the
// context's builder; nil leaves the word reading as untouched.
func (s *State) StoreWord(addr uint32, v *expr.Expr) {
	s.own()
	s.mem.store(addr, v.ID())
}

// LoadWord reads a word; exported for test inspection and for the
// reception path that copies payloads into the RX buffer.
func (s *State) LoadWord(addr uint32) *expr.Expr { return s.loadWord(addr) }

// OverheadBytes models the per-state bookkeeping cost (registers, stack,
// constraints, history, events) that exists even when all memory pages are
// shared. This is what makes duplicate states expensive in the paper's RAM
// measurements.
func (s *State) OverheadBytes() int {
	const fixed = 512
	return fixed +
		isa.NumRegs*8 +
		len(s.frames)*16 +
		len(s.pathCond)*24 +
		len(s.hist)*32 +
		len(s.trace)*24 +
		len(s.events)*48
}

// SettleOverhead returns OverheadBytes and its change since the previous
// call on this state (all of it on the first; a fork starts unsettled), so
// the engine can keep a running total without revisiting untouched states.
func (s *State) SettleOverhead() (bytes, delta int) {
	bytes = s.OverheadBytes()
	delta = bytes - s.settled
	s.settled = bytes
	return bytes, delta
}

// RecordSend appends a sent-packet entry to the communication history and
// returns the per-state sequence number identifying the transmission.
func (s *State) RecordSend(peer uint32, t uint64, payloadHash uint64) uint32 {
	s.own()
	seq := s.sendSeq
	s.sendSeq++
	s.hist = append(s.hist, HistEntry{Dir: DirSent, Peer: peer, Time: t, Seq: seq, Payload: payloadHash})
	return seq
}

// RecordRecv appends a received-packet entry to the communication history.
// senderFP is the sending state's Fingerprint at transmission time, making
// the packet globally unique (see HistEntry).
func (s *State) RecordRecv(peer uint32, t uint64, seq uint32, payloadHash, senderFP uint64) {
	s.own()
	s.hist = append(s.hist, HistEntry{
		Dir: DirRecv, Peer: peer, Time: t, Seq: seq, Payload: payloadHash, SenderFP: senderFP,
	})
}

// NextRecvSeq returns and consumes the per-state reception counter; the
// failure models use it to name their decision variables deterministically.
func (s *State) NextRecvSeq() uint32 {
	s.own()
	n := s.recvSeq
	s.recvSeq++
	return n
}

// AddConstraint appends a constraint to the path condition. The caller is
// responsible for having checked feasibility.
func (s *State) AddConstraint(c *expr.Expr) {
	if c.IsTrue() {
		return
	}
	s.own()
	s.pathCond = append(s.pathCond, c)
}

// InheritConstraints merges the sender's path condition into this state's
// at packet delivery, skipping constraints already present. Receiving a
// packet implies the conditions under which it was sent: with symbolic
// packet contents (§II-A "symbolic packet header") a receiver later
// branches on the *sender's* variables, and without inheritance the
// locally-feasible-but-globally-contradictory side would survive,
// poisoning dstates with unsatisfiable dscenarios.
func (s *State) InheritConstraints(cs []*expr.Expr) {
	for _, c := range cs {
		present := false
		for _, have := range s.pathCond {
			if have == c {
				present = true
				break
			}
		}
		if !present {
			s.own()
			s.pathCond = append(s.pathCond, c)
		}
	}
}

// ForkOnFreshBool creates a fresh 1-bit symbolic input with the given name,
// constrains this state with cond(name)==1, and returns a forked sibling
// constrained with cond(name)==0. It is the hook the network failure models
// use to inject non-determinism (paper §IV-A: "the receiving node's state
// is forked by a network failure model").
func (s *State) ForkOnFreshBool(name string) *State {
	v := s.ctx.Exprs.Var(name, 1)
	sib := s.Fork()
	s.AddConstraint(v)
	sib.AddConstraint(s.ctx.Exprs.Not(v))
	return sib
}

// Kill marks the state dead with the given error.
func (s *State) Kill(err error) {
	s.own()
	s.status = StatusDead
	s.runErr = err
	s.events = nil
}

// Halt marks the state halted.
func (s *State) Halt() {
	s.own()
	s.status = StatusHalted
	s.events = nil
}

func (s *State) String() string {
	return "state#" + strconv.FormatUint(s.id, 10) + "@n" + strconv.Itoa(s.node)
}

// State images: a plain-data, exported mirror of the VM state used by the
// checkpoint subsystem. Image flattens a State (and deduplicates its COW
// memory pages through a PageTable); RestoreStates rebuilds live states —
// with the original ids and shared pages, and without touching the solver,
// which keeps no per-state data — from images that have already survived a
// round-trip through untrusted bytes, so every structural assumption is
// validated rather than assumed.
package vm

import (
	"errors"
	"fmt"

	"sde/internal/expr"
	"sde/internal/isa"
)

// PageWords is the number of machine words in one memory page.
const PageWords = pageWords

// PageTable deduplicates memory pages across the states of one snapshot.
// Shared pages (the COW fork case) are interned once, recognised by a stamp
// the table leaves on each page and numbered densely in first-reference
// order — a stable numbering that survives encode→decode→encode
// byte-identically. A table covers the states of one context, whose pages
// carry no other table's epoch.
type PageTable struct {
	ctx   *Context
	epoch uint64
	pages [][PageWords]uint32
}

// NewPageTable returns an empty page table for the states of ctx, with
// room for every page they hold.
func NewPageTable(ctx *Context) *PageTable {
	ctx.pageTables++
	return &PageTable{
		ctx:   ctx,
		epoch: ctx.pageTables,
		pages: make([][PageWords]uint32, 0, ctx.livePages),
	}
}

// Pages returns the interned pages in dense index order: per page its
// words' node ids in the context's builder, 0 for an unwritten word.
func (t *PageTable) Pages() [][PageWords]uint32 { return t.pages }

// intern numbers p, copying its words the first time the table sees it.
func (t *PageTable) intern(p *page) int {
	if p.tableEpoch != t.epoch {
		p.tableEpoch, p.tableIdx = t.epoch, uint32(len(t.pages))
		t.pages = append(t.pages, p.words)
	}
	return int(p.tableIdx)
}

// PageRef attaches one interned page to a state's address space.
type PageRef struct {
	MemIndex uint32 // page number within the state's address space
	Page     int    // dense index into the snapshot's page table
}

// FrameImage is one saved return address.
type FrameImage struct {
	Fn, PC int
}

// EventImage is a pending event without its queue-internal sequence
// number; restored events are renumbered 0..n-1 in queue order, which
// preserves the only property the engine relies on (relative order among
// same-time events) and is invisible to fingerprints.
type EventImage struct {
	Time uint64
	Kind EventKind
	Fn   int
	Arg  *expr.Expr // nilable
	Src  uint32
	Data []*expr.Expr
}

// StateImage is the flattened form of a State. Its path condition,
// history, trace and event payloads alias the state's: capped views of
// append-only arrays, as a body that shared them holds them (see
// State.own), which nothing writes in place.
type StateImage struct {
	ID   uint64
	Node int

	Regs   [isa.NumRegs]*expr.Expr // nil = never written
	Frames []FrameImage
	Fn, PC int

	Status Status
	HasErr bool
	ErrMsg string

	PathCond []*expr.Expr
	Events   []EventImage

	Hist  []HistEntry
	Trace []TraceEntry

	SendSeq, RecvSeq, SymSeq uint32
	Steps                    uint64

	Pages []PageRef // sorted by MemIndex
}

// Image flattens the state, interning its memory pages into t, which must
// be a table of the state's context.
func (s *State) Image(t *PageTable) StateImage {
	if t.ctx != s.ctx {
		panic("vm: Image into another context's page table")
	}
	img := StateImage{
		ID:       s.id,
		Node:     s.node,
		Regs:     s.regs,
		Fn:       s.fn,
		PC:       s.pc,
		Status:   s.status,
		PathCond: s.pathCond[:len(s.pathCond):len(s.pathCond)],
		Hist:     s.hist[:len(s.hist):len(s.hist)],
		Trace:    s.trace[:len(s.trace):len(s.trace)],
		SendSeq:  s.sendSeq,
		RecvSeq:  s.recvSeq,
		SymSeq:   s.symSeq,
		Steps:    s.steps,
	}
	if s.runErr != nil {
		img.HasErr = true
		img.ErrMsg = s.runErr.Error()
	}
	img.Frames = make([]FrameImage, len(s.frames))
	for i, fr := range s.frames {
		img.Frames[i] = FrameImage{Fn: fr.fn, PC: fr.pc}
	}
	img.Events = make([]EventImage, len(s.events))
	for i, ev := range s.events {
		img.Events[i] = EventImage{
			Time: ev.Time,
			Kind: ev.Kind,
			Fn:   ev.Fn,
			Arg:  ev.Arg,
			Src:  ev.Src,
			Data: ev.Data[:len(ev.Data):len(ev.Data)],
		}
	}
	img.Pages = make([]PageRef, len(s.mem.slots))
	for i, sl := range s.mem.slots {
		img.Pages[i] = PageRef{MemIndex: sl.idx, Page: t.intern(sl.p)}
	}
	return img
}

// RestoreStates rebuilds live states from images and the snapshot's page
// table, preserving state ids and re-sharing pages referenced by several
// states. No solver call is made: solver state is never serialized, and
// the first query after a resume encodes what it needs. The images are
// consumed: a restored state adopts its image's path condition, history,
// trace and event payloads as capped views — the arrays a fork would share
// with its parent, under the same rule: nothing writes them in place, and
// the first append copies. Page words are node ids of ctx's builder — the
// one the snapshot was decoded through, which built every node they name —
// so each needs only to be one it has handed out.
func RestoreStates(ctx *Context, prog *isa.Program, images []StateImage, pages [][PageWords]uint32) ([]*State, error) {
	nodes := uint32(ctx.Exprs.NumNodes())
	for i := range pages {
		for wi, id := range &pages[i] {
			if id > nodes {
				return nil, fmt.Errorf("vm: restored page %d word %d is not a node of the context's builder", i, wi)
			}
		}
	}
	shared := make([]*page, len(pages))
	out := make([]*State, 0, len(images))
	for i := range images {
		img := &images[i]
		s, err := restoreState(ctx, prog, img, pages, shared)
		if err != nil {
			return nil, fmt.Errorf("vm: restore state %d: %w", img.ID, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func restoreState(ctx *Context, prog *isa.Program, img *StateImage, pages [][PageWords]uint32, shared []*page) (*State, error) {
	if img.Node < 0 {
		return nil, fmt.Errorf("negative node id %d", img.Node)
	}
	switch img.Status {
	case StatusIdle, StatusHalted, StatusDead:
	default:
		// StatusRunning is transient within Engine.Step and never a
		// legal checkpoint boundary.
		return nil, fmt.Errorf("status %d not restorable", img.Status)
	}
	if img.Fn < -1 || img.Fn >= prog.NumFuncs() {
		return nil, fmt.Errorf("function %d outside program", img.Fn)
	}
	s := &State{
		id:   img.ID,
		node: img.Node,
		body: &body{
			ctx:      ctx,
			prog:     prog,
			regs:     img.Regs,
			mem:      newMemory(ctx),
			fn:       img.Fn,
			pc:       img.PC,
			ref:      1,
			status:   img.Status,
			pathCond: img.PathCond[:len(img.PathCond):len(img.PathCond)],
			hist:     img.Hist[:len(img.Hist):len(img.Hist)],
			trace:    img.Trace[:len(img.Trace):len(img.Trace)],
			sendSeq:  img.SendSeq,
			recvSeq:  img.RecvSeq,
			symSeq:   img.SymSeq,
			steps:    img.Steps,
		},
	}
	if img.HasErr {
		s.runErr = errors.New(img.ErrMsg)
	}
	s.frames = make([]frame, len(img.Frames))
	for i, fr := range img.Frames {
		if fr.Fn < 0 || fr.Fn >= prog.NumFuncs() || fr.PC < 0 {
			return nil, fmt.Errorf("frame (%d,%d) outside program", fr.Fn, fr.PC)
		}
		s.frames[i] = frame{fn: fr.Fn, pc: fr.PC}
	}
	s.events = make([]Event, len(img.Events))
	var prevTime uint64
	for i, ev := range img.Events {
		if ev.Kind < EventBoot || ev.Kind > EventRecv {
			return nil, fmt.Errorf("event %d has kind %d", i, ev.Kind)
		}
		if ev.Fn < -1 || ev.Fn >= prog.NumFuncs() {
			return nil, fmt.Errorf("event %d targets function %d", i, ev.Fn)
		}
		if ev.Time < prevTime {
			return nil, fmt.Errorf("event %d out of time order", i)
		}
		prevTime = ev.Time
		s.events[i] = Event{
			Time: ev.Time,
			Kind: ev.Kind,
			Fn:   ev.Fn,
			Arg:  ev.Arg,
			Src:  ev.Src,
			Data: ev.Data[:len(ev.Data):len(ev.Data)],
			seq:  uint64(i),
		}
	}
	s.eventSeq = uint64(len(img.Events))
	var prevIdx int64 = -1
	s.mem.slots = make([]pageSlot, 0, len(img.Pages))
	for _, ref := range img.Pages {
		if ref.Page < 0 || ref.Page >= len(shared) {
			return nil, fmt.Errorf("page ref %d outside table", ref.Page)
		}
		if int64(ref.MemIndex) <= prevIdx {
			return nil, fmt.Errorf("page index %d out of order", ref.MemIndex)
		}
		prevIdx = int64(ref.MemIndex)
		p := shared[ref.Page]
		if p == nil {
			p = s.mem.newPage()
			p.words = pages[ref.Page]
			shared[ref.Page] = p
		} else {
			p.ref++
		}
		// Strictly ascending page numbers (checked above) keep the table
		// sorted.
		s.mem.slots = append(s.mem.slots, pageSlot{idx: ref.MemIndex, p: p})
	}
	return s, nil
}

// RestoreStateIDSeq sets the number of state ids handed out to the value
// recovered from a checkpoint, so ids assigned after a resume continue
// exactly where the interrupted run stopped — the property that makes a
// resumed exploration bit-identical to an uninterrupted one. The work
// counters (Stats) are not restored: a resumed context counts its own work
// and the engine adds what the snapshot carried.
func (c *Context) RestoreStateIDSeq(n uint64) { c.nextStateID.Store(n) }

// StateIDSeq returns the number of state ids handed out so far.
func (c *Context) StateIDSeq() uint64 { return c.nextStateID.Load() }

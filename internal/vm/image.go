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
// Shared pages (the COW fork case) are interned once, keyed by identity
// but numbered densely in first-reference order — a stable numbering that
// survives encode→decode→encode byte-identically.
type PageTable struct {
	index map[*page]int // page -> dense index
	words [][]*expr.Expr
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{index: make(map[*page]int)}
}

// Pages returns the interned pages in dense index order. Each page is a
// PageWords-long slice with nil entries for unwritten (zero) words.
func (t *PageTable) Pages() [][]*expr.Expr { return t.words }

// intern numbers p, resolving its words through eb, the builder they are
// ids of, the first time the table sees it.
func (t *PageTable) intern(p *page, eb *expr.Builder) int {
	if i, ok := t.index[p]; ok {
		return i
	}
	i := len(t.words)
	t.index[p] = i
	words := make([]*expr.Expr, pageWords)
	for wi, id := range &p.words {
		words[wi] = eb.Node(id)
	}
	t.words = append(t.words, words)
	return i
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

// StateImage is the flattened form of a State.
type StateImage struct {
	ID   uint64
	Node int

	Regs   []*expr.Expr // always isa.NumRegs entries; nil = never written
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

// Image flattens the state, interning its memory pages into t.
func (s *State) Image(t *PageTable) StateImage {
	img := StateImage{
		ID:       s.id,
		Node:     s.node,
		Regs:     append([]*expr.Expr(nil), s.regs[:]...),
		Fn:       s.fn,
		PC:       s.pc,
		Status:   s.status,
		PathCond: append([]*expr.Expr(nil), s.pathCond...),
		Hist:     append([]HistEntry(nil), s.hist...),
		Trace:    append([]TraceEntry(nil), s.trace...),
		SendSeq:  s.sendSeq,
		RecvSeq:  s.recvSeq,
		SymSeq:   s.symSeq,
		Steps:    s.steps,
	}
	if s.runErr != nil {
		img.HasErr = true
		img.ErrMsg = s.runErr.Error()
	}
	for _, fr := range s.frames {
		img.Frames = append(img.Frames, FrameImage{Fn: fr.fn, PC: fr.pc})
	}
	for _, ev := range s.events {
		img.Events = append(img.Events, EventImage{
			Time: ev.Time,
			Kind: ev.Kind,
			Fn:   ev.Fn,
			Arg:  ev.Arg,
			Src:  ev.Src,
			Data: append([]*expr.Expr(nil), ev.Data...),
		})
	}
	for _, sl := range s.mem.slots {
		img.Pages = append(img.Pages, PageRef{MemIndex: sl.idx, Page: t.intern(sl.p, s.ctx.Exprs)})
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
// the first append copies. Pages are translated to node ids, so every word
// must be a node of ctx's builder — the one the snapshot was decoded through.
func RestoreStates(ctx *Context, prog *isa.Program, images []StateImage, pages [][]*expr.Expr) ([]*State, error) {
	nodes := uint32(ctx.Exprs.NumNodes())
	for i, pw := range pages {
		if len(pw) != PageWords {
			return nil, fmt.Errorf("vm: restored page %d has %d words, want %d", i, len(pw), PageWords)
		}
		for wi, w := range pw {
			if w != nil && (w.ID() > nodes || ctx.Exprs.Node(w.ID()) != w) {
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

func restoreState(ctx *Context, prog *isa.Program, img *StateImage, pages [][]*expr.Expr, shared []*page) (*State, error) {
	if img.Node < 0 {
		return nil, fmt.Errorf("negative node id %d", img.Node)
	}
	if len(img.Regs) != isa.NumRegs {
		return nil, fmt.Errorf("%d registers, want %d", len(img.Regs), isa.NumRegs)
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
		ctx:      ctx,
		prog:     prog,
		id:       img.ID,
		node:     img.Node,
		mem:      newMemory(ctx),
		fn:       img.Fn,
		pc:       img.PC,
		status:   img.Status,
		pathCond: img.PathCond[:len(img.PathCond):len(img.PathCond)],
		hist:     img.Hist[:len(img.Hist):len(img.Hist)],
		trace:    img.Trace[:len(img.Trace):len(img.Trace)],
		sendSeq:  img.SendSeq,
		recvSeq:  img.RecvSeq,
		symSeq:   img.SymSeq,
		steps:    img.Steps,
	}
	copy(s.regs[:], img.Regs)
	if img.HasErr {
		s.runErr = errors.New(img.ErrMsg)
	}
	for _, fr := range img.Frames {
		if fr.Fn < 0 || fr.Fn >= prog.NumFuncs() || fr.PC < 0 {
			return nil, fmt.Errorf("frame (%d,%d) outside program", fr.Fn, fr.PC)
		}
		s.frames = append(s.frames, frame{fn: fr.Fn, pc: fr.PC})
	}
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
		s.events = append(s.events, Event{
			Time: ev.Time,
			Kind: ev.Kind,
			Fn:   ev.Fn,
			Arg:  ev.Arg,
			Src:  ev.Src,
			Data: ev.Data[:len(ev.Data):len(ev.Data)],
			seq:  uint64(i),
		})
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
			for wi, w := range pages[ref.Page] {
				p.words[wi] = w.ID()
			}
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

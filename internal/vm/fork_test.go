package vm

// What a fork shares, derives and allocates: the aliasing property test
// (forks share their parent's path condition, history and trace arrays; a
// shadow family that deep-copies at every fork must stay equal to them) and
// the allocation guards that pin what one fork costs.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sde/internal/expr"
	"sde/internal/isa"
)

// shareProg has two handlers that call decide from different call sites, so
// a state forked at decide's symbolic branch is mid-call with one frame that
// names its handler; each handler prints on the way out.
func shareProg(t *testing.T) *isa.Program {
	return build(t, func(b *isa.Builder) {
		b.Func("boot").Ret()
		tick := b.Func("tick")
		tick.MovI(isa.R6, 1)
		tick.Call("decide")
		tick.Print("tick", isa.R6)
		tick.Ret()
		recv := b.Func("on_recv")
		recv.Load(isa.R6, isa.R1, 0)
		recv.Nop()
		recv.Call("decide")
		recv.Print("recv", isa.R6)
		recv.Ret()
		dec := b.Func("decide")
		dec.Sym(isa.R5, "x", 1)
		dec.BrNZ(isa.R5, "t")
		dec.AddI(isa.R6, isa.R6, 1)
		dec.Label("t")
		dec.Ret()
	})
}

// world is one family of states driven by the aliasing test. The live world
// forks the way the engine does; the shadow world (deep) gives every fork
// its own copy of every list the moment it is made — what SpecFork did
// before lists were shared. Both worlds receive the same operations on the
// same indices, so state i of one must always equal state i of the other.
type world struct {
	deep     bool
	states   []*State // nil: released
	branched int      // forks the VM made itself, at a branch inside a call
}

func (w *world) detach(s *State) {
	if !w.deep {
		return
	}
	s.pathCond = slices.Clone(s.pathCond)
	s.hist = slices.Clone(s.hist)
	s.trace = slices.Clone(s.trace)
	s.frames = slices.Clone(s.frames)
	s.events = slices.Clone(s.events)
}

func (w *world) adopt(s *State) { w.detach(s); w.states = append(w.states, s) }

// OnFork implements Hooks: a sibling forked at a branch joins the family
// mid-call, to be run later.
func (w *world) OnFork(_, sib *State)                { w.branched++; w.adopt(sib) }
func (w *world) OnSend(*State, uint32, []*expr.Expr) {}
func (w *world) OnViolation(*State, *Violation)      {}

func sameEvents(a, b []Event) bool {
	return slices.EqualFunc(a, b, func(x, y Event) bool {
		return x.Time == y.Time && x.Kind == y.Kind && x.Fn == y.Fn && x.Arg == y.Arg &&
			x.Src == y.Src && x.seq == y.seq && slices.Equal(x.Data, y.Data)
	})
}

// diffStates names the first observable two states differ in, or "".
func diffStates(a, b *State) string {
	switch {
	case !slices.Equal(a.PathCond(), b.PathCond()):
		return fmt.Sprintf("path condition %v vs %v", a.PathCond(), b.PathCond())
	case !slices.Equal(a.History(), b.History()):
		return fmt.Sprintf("history %v vs %v", a.History(), b.History())
	case !slices.Equal(a.Trace(), b.Trace()):
		return fmt.Sprintf("trace %v vs %v", a.Trace(), b.Trace())
	case !slices.Equal(a.frames, b.frames):
		return fmt.Sprintf("frames %v vs %v", a.frames, b.frames)
	case !sameEvents(a.events, b.events):
		return fmt.Sprintf("events %v vs %v", a.events, b.events)
	case a.Status() != b.Status() || a.Steps() != b.Steps():
		return fmt.Sprintf("status/steps %v/%d vs %v/%d", a.Status(), a.Steps(), b.Status(), b.Steps())
	case a.Fingerprint() != b.Fingerprint():
		return fmt.Sprintf("fingerprint %#x vs %#x", a.Fingerprint(), b.Fingerprint())
	case a.OverheadBytes() != b.OverheadBytes():
		return fmt.Sprintf("overhead %d vs %d", a.OverheadBytes(), b.OverheadBytes())
	}
	return ""
}

// TestForkAliasing is the property that makes sharing safe: no operation on
// one state may change what another state observes. A seeded interleaving of
// every operation that touches the shared lists — forks (plain, speculative,
// and the VM's own at a branch inside a call), appends (constraints, sends,
// receptions, prints), the event queue, the three edits that are not appends
// (RemoveConstraintAt, a RestoreFromSpec rewind, Reboot's reset) and Release
// — runs on the live family and on a shadow that shares nothing, and after
// every step every state must equal its shadow.
func TestForkAliasing(t *testing.T) {
	d := newAliasDriver(t, 22)
	live, shadow := &world{}, &world{deep: true}
	d.worlds = []*world{live, shadow}
	for node := 0; node < 3; node++ {
		for _, w := range d.worlds {
			w.adopt(NewState(d.ctx, d.prog, node))
		}
	}
	for step := 0; step < 4000; step++ {
		d.step(step)
	}
	dead := 0
	for _, s := range live.states {
		if s != nil && s.Status() == StatusDead {
			dead++
		}
	}
	t.Logf("%d states made (%d dead at the end), %d forks at a branch inside a call, %d rewinds, %d reboots",
		len(live.states), dead, live.branched, d.rewinds, d.reboots)
	if live.branched == 0 || d.rewinds == 0 || d.reboots == 0 {
		t.Error("the sequence must make some forks inside a call, some rewinds and some reboots")
	}
}

// aliasDriver applies one seeded sequence of list-touching operations to
// every world it is given, index for index, and after each step holds every
// state of the first world to the same state of each other world.
type aliasDriver struct {
	t                *testing.T
	ctx              *Context
	prog             *isa.Program
	tick, recv, boot int
	rng              *rand.Rand
	pool             []*expr.Expr // constraints that never contradict one another
	worlds           []*world
	now              uint64
	rewinds, reboots int // coverage of the rare shapes
}

func newAliasDriver(t *testing.T, seed int64) *aliasDriver {
	prog := shareProg(t)
	d := &aliasDriver{
		t: t, ctx: NewContext(), prog: prog, rng: rand.New(rand.NewSource(seed)),
		tick: prog.FuncIndex("tick"), recv: prog.FuncIndex("on_recv"), boot: prog.FuncIndex("boot"),
	}
	// Booleans only positively, each word pinned to one constant.
	eb := d.ctx.Exprs
	for i := 0; i < 12; i++ {
		d.pool = append(d.pool, eb.Var(fmt.Sprintf("b%d", i), 1))
	}
	for i := 0; i < 6; i++ {
		d.pool = append(d.pool, eb.Eq(eb.Var(fmt.Sprintf("w%d", i), 8), eb.Const(uint64(i+1), 8)))
	}
	return d
}

func (d *aliasDriver) step(step int) {
	const maxLive = 40
	t, eb, rng, pool, live := d.t, d.ctx.Exprs, d.rng, d.pool, d.worlds[0]
	d.now++
	now := d.now
	var alive []int
	for i, s := range live.states {
		if s != nil {
			alive = append(alive, i)
		}
	}
	i := alive[rng.Intn(len(alive))]
	other := alive[rng.Intn(len(alive))]
	op, r := rng.Intn(16), rng.Intn(1<<16)
	st := live.states[i].Status()
	if len(alive) >= maxLive && op <= 1 {
		op = 15 // full house: release instead of forking
	}
	for _, w := range d.worlds {
		s := w.states[i]
		switch op {
		case 0:
			w.adopt(s.Fork())
		case 1:
			n := s.SpecFork()
			n.AdoptFreshID()
			w.adopt(n)
		case 2, 3:
			s.AddConstraint(pool[r%len(pool)])
		case 4:
			if o := w.states[other]; o.NodeID() != s.NodeID() {
				s.InheritConstraints(o.PathCond())
			}
		case 5:
			s.RecordSend(uint32(r%3), now, uint64(r))
		case 6:
			s.RecordRecv(uint32(r%3), now, uint32(r), uint64(r), uint64(r)*31)
		case 7:
			s.PushEvent(Event{Time: now + uint64(r%4), Kind: EventTimer, Fn: d.tick, Arg: eb.Const(uint64(r), WordBits)})
		case 8:
			s.PushEvent(Event{Time: now + uint64(r%4), Kind: EventRecv, Fn: d.recv, Src: uint32(r % 3),
				Data: []*expr.Expr{eb.Const(uint64(r%7), WordBits)}})
		case 9, 10: // run: finish a suspended activation, or start the next event
			if s.Status() == StatusIdle && s.PendingEvents() > 0 {
				s.BeginEvent(0x200)
			}
			if s.Status() == StatusRunning {
				if err := s.Run(now, 0, w); err != nil {
					t.Fatalf("step %d: Run: %v", step, err)
				}
			}
		case 11:
			if s.PendingEvents() > 0 {
				if r%2 == 0 {
					s.DropEvent()
				} else {
					s.DuplicateEvent()
				}
			}
		case 12:
			if n := len(s.PathCond()); n > 0 {
				s.RemoveConstraintAt(r % n)
			}
		case 13: // a speculative branch whose true side turns out infeasible
			before := s.Status()
			keep := len(s.PathCond())
			sib := s.SpecFork()
			w.detach(sib)
			c := pool[r%len(pool)]
			sib.AddConstraint(eb.Not(c))
			s.AddConstraint(c)
			s.RecordSend(1, now, uint64(r))
			s.PushEvent(Event{Time: now, Kind: EventTimer, Fn: d.tick})
			w.adopt(s.Fork()) // a fork made on the doomed side keeps its view
			s.AddConstraint(pool[(r+1)%len(pool)])
			s.RestoreFromSpec(sib, keep)
			s.ClearSpecRewound()
			s.status = before
		case 14:
			s.Reboot(d.boot, now)
		case 15:
			if len(alive) > 3 {
				s.Release()
				w.states[i] = nil
			}
		}
	}
	switch {
	case op == 13:
		d.rewinds++
	case op == 14 && st != StatusHalted && st != StatusDead:
		d.reboots++
	}
	for _, w := range d.worlds[1:] {
		if len(live.states) != len(w.states) {
			t.Fatalf("step %d: op %d left %d live states, %d shadows", step, op, len(live.states), len(w.states))
		}
		for j, s := range live.states {
			if s == nil {
				continue
			}
			if diff := diffStates(s, w.states[j]); diff != "" {
				t.Fatalf("step %d: after op %d on state %d, state %d differs from its shadow: %s", step, op, i, j, diff)
			}
		}
	}
}

// TestRestoreAliasing is TestForkAliasing for RestoreStates, which adopts
// its images' path condition, history, trace and event payloads instead of
// copying them: two families restored from the same images — with the spare
// capacity an append-grown decode leaves behind every list — are driven
// through different operation sequences, turn about, and each must stay
// equal to a shadow restored from deep copies that shares nothing. An
// append by one family that reached the arrays they both started from
// would surface in the other.
func TestRestoreAliasing(t *testing.T) {
	warm := newAliasDriver(t, 23)
	seedWorld := &world{}
	warm.worlds = []*world{seedWorld}
	for node := 0; node < 3; node++ {
		seedWorld.adopt(NewState(warm.ctx, warm.prog, node))
	}
	for step := 0; step < 400; step++ {
		warm.step(step)
	}
	pt := NewPageTable()
	var images []StateImage
	var lists int
	for _, s := range seedWorld.states {
		if s == nil {
			continue
		}
		if s.Status() == StatusRunning { // a snapshot is taken at an event boundary
			if err := s.Run(warm.now, 0, seedWorld); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One page holds the three zero words a page must keep apart: an
	// untouched word, an explicit zero (a dirty zero, which Image keeps as
	// a word), and the nil a never-written register stores, which stays
	// untouched.
	const zeroPage = 0x7f00
	dirtyZero := warm.ctx.Exprs.Const(0, WordBits)
	var zeroed *State
	for _, s := range seedWorld.states {
		if s != nil {
			zeroed = s
			s.StoreWord(zeroPage, dirtyZero)
			s.StoreWord(zeroPage+1, nil)
			break
		}
	}
	for _, s := range seedWorld.states {
		if s == nil {
			continue
		}
		img := s.Image(pt)
		img.PathCond = slices.Grow(img.PathCond, 4)
		img.Hist = slices.Grow(img.Hist, 4)
		img.Trace = slices.Grow(img.Trace, 4)
		for i := range img.Events {
			img.Events[i].Data = slices.Grow(img.Events[i].Data, 4)
		}
		lists += len(img.PathCond) + len(img.Hist) + len(img.Trace)
		images = append(images, img)
	}
	if lists == 0 {
		t.Fatal("the warm-up left nothing in any list")
	}
	deepCopy := func() []StateImage {
		out := slices.Clone(images)
		for i := range out {
			out[i].PathCond = slices.Clone(out[i].PathCond)
			out[i].Hist = slices.Clone(out[i].Hist)
			out[i].Trace = slices.Clone(out[i].Trace)
			out[i].Events = slices.Clone(out[i].Events)
			for j := range out[i].Events {
				out[i].Events[j].Data = slices.Clone(out[i].Events[j].Data)
			}
		}
		return out
	}
	restore := func(d *aliasDriver, images []StateImage, deep bool) *world {
		states, err := RestoreStates(d.ctx, d.prog, images, pt.Pages())
		if err != nil {
			t.Fatal(err)
		}
		w := &world{deep: deep}
		for _, s := range states {
			w.adopt(s)
		}
		return w
	}
	var families []*aliasDriver
	for seed := int64(31); seed < 33; seed++ {
		d := newAliasDriver(t, seed)
		d.ctx, d.pool, d.now = warm.ctx, warm.pool, warm.now
		// Both families restore from the same images; each shadow from its own copy.
		d.worlds = []*world{restore(d, slices.Clone(images), false), restore(d, deepCopy(), true)}
		families = append(families, d)
	}
	// Restored pages image back to exactly the pages they came from.
	for _, d := range families {
		for _, w := range d.worlds {
			again := NewPageTable()
			for _, s := range w.states {
				s.Image(again)
			}
			if !slices.EqualFunc(again.Pages(), pt.Pages(), slices.Equal) {
				t.Fatal("Image → RestoreStates → Image changed the pages")
			}
		}
	}
	zeroes := 0
	for _, ref := range zeroed.Image(pt).Pages {
		if ref.MemIndex != zeroPage/PageWords {
			continue
		}
		zeroes++
		if pw := pt.Pages()[ref.Page]; pw[0] != dirtyZero || pw[1] != nil || pw[2] != nil {
			t.Errorf("the zero page images as %v, want a dirty zero, then nil twice", pw[:3])
		}
	}
	if zeroes != 1 {
		t.Fatalf("the zeroed state images %d pages at %#x, want 1", zeroes, zeroPage)
	}
	// Pages hold ids of one builder: words from another are refused.
	if _, err := RestoreStates(NewContext(), warm.prog, slices.Clone(images), pt.Pages()); err == nil {
		t.Error("RestoreStates accepted pages whose words belong to another context's builder")
	}
	for step := 0; step < 1500; step++ {
		for _, d := range families {
			d.step(step)
		}
	}
}

// TestForkAllocs pins what a fork costs on the measured shape: the state,
// its page table and its event queue. Before lists were shared a fork also
// allocated a hash map and a group for the page table, the same for the
// implied bindings, copies of the path condition and of the history, and an
// object per event (9 in all); a fork followed by one reception on the child
// — a history entry and a queued event, each reallocating a shared or full
// array — made 11; a fingerprint 3 (the page-number slice, the sort closure
// and its swapper). A write to a shared page costs the child one page.
func TestForkAllocs(t *testing.T) {
	ctx, s := measuredState(t)
	payload := []*expr.Expr{ctx.Exprs.Const(7, WordBits)}
	word := ctx.Exprs.Const(9, WordBits)
	for _, tc := range []struct {
		name  string
		bound float64
		f     func()
	}{
		{"fork", 3, func() { s.Fork().Release() }},
		{"fork + reception", 5, func() {
			c := s.Fork()
			c.RecordRecv(2, 10, 0, 1, 2)
			c.PushEvent(Event{Time: 11, Kind: EventRecv, Fn: 0, Src: 2, Data: payload})
			c.Release()
		}},
		{"fork + COW write", 4, func() {
			c := s.Fork()
			c.StoreWord(0, word)
			c.Release()
		}},
		{"fingerprint", 0, func() { _ = s.Fingerprint() }},
	} {
		if got := testing.AllocsPerRun(200, tc.f); got > tc.bound {
			t.Errorf("%s: %v allocations, want at most %v", tc.name, got, tc.bound)
		}
	}
}

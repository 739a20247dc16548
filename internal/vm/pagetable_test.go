package vm

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sde/internal/expr"
)

// refMemory is the page table memory had before it became a sorted slice —
// a hash map from page number to page — kept as the reference the
// differential test below drives beside the real one. It has its own pages,
// which hold expression pointers where the real ones hold node ids, and its
// own live counter.
type refMemory struct {
	pages map[uint32]*refPage
	live  *int64
}

type refPage struct {
	ref   int32
	words [pageWords]*expr.Expr // nil = zero
}

func (m *refMemory) clone() refMemory {
	pages := make(map[uint32]*refPage, len(m.pages))
	for k, p := range m.pages {
		p.ref++
		pages[k] = p
	}
	return refMemory{pages: pages, live: m.live}
}

func (m *refMemory) load(addr uint32) *expr.Expr {
	p := m.pages[addr>>pageShift]
	if p == nil {
		return nil
	}
	return p.words[addr&pageMask]
}

func (m *refMemory) store(addr uint32, v *expr.Expr) {
	idx := addr >> pageShift
	p := m.pages[idx]
	switch {
	case p == nil:
		*m.live++
		p = &refPage{ref: 1}
		m.pages[idx] = p
	case p.ref > 1:
		*m.live++
		clone := &refPage{ref: 1, words: p.words}
		p.ref--
		m.pages[idx] = clone
		p = clone
	}
	p.words[addr&pageMask] = v
}

func (m *refMemory) release() {
	for _, p := range m.pages {
		if p.ref--; p.ref == 0 {
			*m.live--
		}
	}
	m.pages = nil
}

// sortedIdxs is the page order the old fingerprint and snapshot code sorted
// into on every call.
func (m *refMemory) sortedIdxs() []uint32 {
	idxs := make([]uint32, 0, len(m.pages))
	for idx := range m.pages {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs
}

// hash is the old State.memoryHash over the reference table.
func (m *refMemory) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, idx := range m.sortedIdxs() {
		p := m.pages[idx]
		ph := uint64(0)
		for wi, w := range p.words {
			if w == nil {
				continue
			}
			if w.IsConst() && w.ConstVal() == 0 {
				continue
			}
			ph ^= (uint64(wi) + 0x9e3779b97f4a7c15) * 1099511628211
			ph ^= w.Hash() * 0x9e3779b97f4a7c15
		}
		if ph == 0 {
			continue
		}
		h ^= uint64(idx)
		h *= 1099511628211
		h ^= ph
		h *= 1099511628211
	}
	return h
}

// TestPageTableDifferential drives a family of memories and their map-based
// references with one seeded sequence of store, load, clone and release over
// dense and sparse page numbers — one lineage starts empty, the other filled
// with 40 pages in descending order, far more than any workload's state
// holds — and requires,
// after every step, the same live-page count and, for the member touched,
// the same loads, the pages in ascending order, and the same memory hash;
// the real memory's words are compared after resolving their node ids.
func TestPageTableDifferential(t *testing.T) {
	ctx := NewContext()
	eb := ctx.Exprs
	rng := rand.New(rand.NewSource(22))
	var refLive int64
	type pair struct {
		mem memory
		ref refMemory
	}
	newPair := func() *pair {
		return &pair{mem: newMemory(ctx), ref: refMemory{pages: map[uint32]*refPage{}, live: &refLive}}
	}
	// Two lineages: one starts large (filled below), one starts empty.
	family := []*pair{newPair(), newPair()}

	var touched []uint32 // addresses some member was ever written at
	randAddr := func() uint32 {
		switch rng.Intn(4) {
		case 0: // dense: the first few pages
			return uint32(rng.Intn(4 * pageWords))
		case 1: // sparse: anywhere in a 20-bit page space
			return uint32(rng.Intn(1<<20))<<pageShift | uint32(rng.Intn(pageWords))
		default: // somewhere a page probably exists already
			if len(touched) == 0 {
				return uint32(rng.Intn(pageWords))
			}
			return touched[rng.Intn(len(touched))]&^pageMask | uint32(rng.Intn(pageWords))
		}
	}
	check := func(step int, p *pair) {
		t.Helper()
		if got := ctx.LivePages(); got != refLive {
			t.Fatalf("step %d: LivePages = %d, reference %d", step, got, refLive)
		}
		idxs := p.ref.sortedIdxs()
		if len(p.mem.slots) != len(idxs) {
			t.Fatalf("step %d: %d slots, reference holds %d pages", step, len(p.mem.slots), len(idxs))
		}
		for i, sl := range p.mem.slots {
			if sl.idx != idxs[i] {
				t.Fatalf("step %d: slot %d is page %d, reference order has %d", step, i, sl.idx, idxs[i])
			}
			want := p.ref.pages[sl.idx]
			if sl.p.ref != want.ref {
				t.Fatalf("step %d: page %d differs from the reference (ref %d vs %d)", step, sl.idx, sl.p.ref, want.ref)
			}
			for wi, id := range sl.p.words {
				if eb.Node(id) != want.words[wi] {
					t.Fatalf("step %d: page %d word %d differs from the reference", step, sl.idx, wi)
				}
			}
		}
		if got, want := (&State{ctx: ctx, mem: p.mem}).memoryHash(), p.ref.hash(); got != want {
			t.Fatalf("step %d: memoryHash = %#x, reference %#x", step, got, want)
		}
	}
	store := func(p *pair, addr uint32, v *expr.Expr) {
		p.mem.store(addr, v.ID())
		p.ref.store(addr, v)
		touched = append(touched, addr)
	}

	for idx := uint32(40); idx > 0; idx-- { // descending insertion
		store(family[0], (idx*3)<<pageShift|idx, eb.Const(uint64(idx), WordBits))
		check(-int(idx), family[0])
	}
	maxPages := 0
	for step := 0; step < 8000; step++ {
		p := family[rng.Intn(len(family))]
		switch op := rng.Intn(16); {
		case op < 8:
			v := eb.Const(uint64(rng.Intn(5)), WordBits) // 0 is a dirty zero
			if rng.Intn(8) == 0 {
				v = nil
			}
			store(p, randAddr(), v)
		case op < 13:
			addr := randAddr()
			if got, want := eb.Node(p.mem.load(addr)), p.ref.load(addr); got != want {
				t.Fatalf("step %d: load(%#x) = %v, reference %v", step, addr, got, want)
			}
		case op < 15:
			if len(family) < 24 {
				family = append(family, &pair{mem: p.mem.clone(), ref: p.ref.clone()})
				p = family[len(family)-1]
			}
		default:
			if len(family) > 1 {
				p.mem.release()
				p.ref.release()
				check(step, p)
				i := 0
				for family[i] != p {
					i++
				}
				family = append(family[:i], family[i+1:]...)
				continue
			}
		}
		check(step, p)
		if len(p.mem.slots) > maxPages {
			maxPages = len(p.mem.slots)
		}
	}
	if maxPages <= 8 {
		t.Errorf("no member ever held more than %d pages", maxPages)
	}
	for _, p := range family {
		p.mem.release()
		p.ref.release()
	}
	if ctx.LivePages() != 0 || refLive != 0 {
		t.Errorf("after releasing every member: LivePages = %d, reference %d", ctx.LivePages(), refLive)
	}
}

// TestPageIsPointerFree guards the page layout: a page holds node ids, no
// pointers, so the garbage collector never scans one, a copy-on-write split
// copies it without write barriers, and its words are the PageBytes the RAM
// model charges. Nothing else fails if a pointer creeps back in.
func TestPageIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: a page must hold no pointers", path, typ.Kind())
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("page", reflect.TypeOf(page{}))
	if got := reflect.TypeOf(page{}.words).Size(); got != PageBytes {
		t.Errorf("a page's words take %d bytes, the RAM model charges %d", got, PageBytes)
	}
}

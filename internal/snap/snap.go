// Package snap implements the durable checkpoint format: a versioned,
// deterministic binary snapshot of a whole exploration frontier — VM
// states, COW memory pages (deduplicated), path conditions as a
// topological encoding of the hash-consed expression DAG, the mapper's
// dstate table (one layout for all three algorithms), the event queues,
// and the virtual clock.
//
// The format is written down once. A coder appends a snapshot's fields
// when encoding and reads them back into the same fields when decoding,
// one method per section, so Encode and Decode cannot drift apart; only
// the expression DAG has two halves, numbering nodes on the way out and
// rebuilding them through the builder on the way in.
//
// The format is deterministic in the strong sense the resume guarantee
// needs: encode→decode→encode is byte-identical. Two properties carry
// that: expression nodes are numbered in a fixed traversal order (all
// builder variables in creation order, then reachable nodes in
// first-visit post-order), and shared memory pages are numbered densely
// in first-reference order rather than by their process-local identities.
//
// Decoding treats its input as untrusted: every failure — truncation,
// bit flips, impossible counts, malformed expression structure — returns
// an error wrapping ErrCorrupt, never a panic. The decoder keeps the first
// failure and reads zeros and empty lists after it, so a corrupt count
// allocates nothing further. A trailing CRC-32C checksum rejects most
// corruption before parsing begins; the structural checks behind it make
// the decoder total anyway (the fuzz target's contract).
//
// Solver state is deliberately absent from snapshots: it is derived data
// that belongs to the solver, not to any execution state, so a restore
// rebuilds none of it and the resumed run's first queries encode what they
// need.
package snap

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/isa"
	"sde/internal/metrics"
	"sde/internal/vm"
)

// ErrCorrupt is wrapped by every decoding failure.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

var magic = []byte("SDEsnp\x00")

// version is the one format this build reads and writes; WireVersion
// tracks it, so bumping it (for a snapshot or a protocol change alike)
// makes older peers reject the handshake instead of misparsing what they
// do not know. Version 13 writes every mapper as its dstate table, with
// the algorithm and k in the header only, where version 12 wrote COB rows,
// COW dstates or SDS dstates with ids of their own, after a second copy of
// both; version 12 wrote the stats section as JSON and ended in a CRC-32C.
const version = 13

// castagnoli is the CRC-32C table of the checksums that end a snapshot and
// a frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sumLen is the length of a checksum: a little-endian CRC-32C.
const sumLen = 4

// Snapshot is the complete persistent form of an exploration frontier,
// taken at an event boundary (no state mid-execution).
type Snapshot struct {
	Algorithm core.Algorithm
	K         int
	Topology  string // topology name, to reject mismatched resumes

	// Position: where the exploration stands. A resumed engine — any slice
	// of it — continues from exactly here.
	Clock       uint64 // engine virtual clock
	Events      uint64 // events processed so far
	NextStateID uint64 // state ids handed out, so resumed ids continue exactly

	Carried

	States []vm.StateImage
	Pages  [][vm.PageWords]uint32 // dense page table: node ids of the encoding or decoding builder
	Mapper *core.MapperSnapshot
}

// Carried is what a run has accumulated on the way to its position: the
// work done and what it found. It is a snapshot's one non-positional
// section — a resumed engine reports it plus its own, and when a frontier is
// cut into slices exactly one of them carries it (the others the zero
// value), so an assembly of the slices counts everything once.
type Carried struct {
	Stats      metrics.RunStats // cumulative counters of every layer
	PeakStates int
	PeakMem    int64
	PriorWall  time.Duration // wall time already spent before this point
	Samples    []metrics.Sample
	Violations []*vm.Violation
}

// Encode serializes the snapshot. b must be the builder that produced
// every expression in it; all of b's variables are serialized (reachable
// or not) so the restored builder assigns future variable ids exactly as
// the original would have.
func (s *Snapshot) Encode(b *expr.Builder) ([]byte, error) {
	if s.Mapper == nil {
		return nil, fmt.Errorf("snap: snapshot without mapper")
	}
	sc := scratches.Get().(*scratch)
	defer sc.release()
	if sc.buf == nil {
		n := lastEncode.Load()
		sc.buf = make([]byte, 0, n+n/8)
	}
	c := coder{buf: sc.buf[:0], b: b, vars: b.Vars(), t: &sc.t}
	if c.number(s); c.err == nil {
		c.snapshot(s)
	}
	if c.err != nil {
		return nil, c.err
	}
	c.buf = binary.LittleEndian.AppendUint32(c.buf, crc32.Checksum(c.buf, castagnoli))
	sc.buf = c.buf
	lastEncode.Store(int64(len(c.buf)))
	out := make([]byte, len(c.buf))
	copy(out, c.buf)
	return out, nil
}

// Decode parses a snapshot. b should be a fresh builder for the resumed
// run's context: all of the snapshot's variables are recreated in their
// original creation order, so variables created after the resume receive
// the same ids they would have in an uninterrupted run. Any failure wraps
// ErrCorrupt.
func Decode(data []byte, b *expr.Builder) (*Snapshot, error) {
	if len(data) < len(magic)+1+sumLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any snapshot", ErrCorrupt, len(data))
	}
	body := data[:len(data)-sumLen]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	c := coder{dec: true, buf: body, b: b}
	s := &Snapshot{}
	c.snapshot(s)
	if left := len(c.buf) - c.pos; left != 0 {
		c.corrupt("%d trailing bytes", left)
	}
	if c.err != nil {
		return nil, c.err
	}
	return s, nil
}

// --- the coder ---------------------------------------------------------------

// coder moves a snapshot to or from its bytes. Each method below codes one
// part of the format through pointers to the snapshot's fields: encoding,
// it appends what they hold; decoding, it reads into them, making every
// list as long as its encoded count.
//
// The first failure sticks. Decoding, it wraps ErrCorrupt and names the
// offset it was met at; every later read yields zero and every later count
// none, so nothing more is allocated, and a check on a value that was never
// read stays silent. Encoding, a snapshot the format cannot carry — a page
// out of range, a per-node row of the wrong length, a mapper of another
// algorithm or k than the header's — is a plain error, kept the same way.
type coder struct {
	dec bool
	buf []byte // encoding: the bytes so far; decoding: the body to read
	pos int    // decoding: the read offset
	err error

	b     *expr.Builder
	vars  []*expr.Expr // encoding: the builder's variables, in creation order
	t     *exprTable   // encoding: the expression numbering
	exprs []*expr.Expr // decoding: the expressions read, by number

	// decoding: where the mapper's buckets and their ids are carved from
	buckets blocks[[]uint64]
	idBlock blocks[uint64]
}

// scratch is what an Encode grows to the size of its snapshot — the
// expression table and the buffer the bytes are appended to — recycled
// through scratches, so an encode allocates its result and little else.
type scratch struct {
	t   exprTable
	buf []byte
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// lastEncode is the length of the latest encoding. A scratch the collector
// took comes back without a buffer; the next encode starts one at that
// length and an eighth, rather than growing one to it by doubling.
var lastEncode atomic.Int64

// release returns sc to scratches, dropping its hold on the builder's nodes.
func (sc *scratch) release() {
	clear(sc.t.nodes)
	sc.t.nodes = sc.t.nodes[:0]
	scratches.Put(sc)
}

func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// corrupt records a decoding failure at the current offset.
func (c *coder) corrupt(format string, args ...any) {
	c.fail(fmt.Errorf("%w: %s (offset %d)", ErrCorrupt, fmt.Sprintf(format, args...), c.pos))
}

func (c *coder) left() int { return len(c.buf) - c.pos }

// put appends v as a uvarint. Unless the buffer grew, it stores back only
// the length: storing a slice into c costs a write barrier each while the
// collector runs.
func (c *coder) put(v uint64) {
	if b := binary.AppendUvarint(c.buf, v); cap(b) == cap(c.buf) {
		c.buf = c.buf[:len(b)]
	} else {
		c.buf = b
	}
}

// putSigned appends v as a varint, zig-zag encoded.
func (c *coder) putSigned(v int64) { c.put(uint64(v<<1) ^ uint64(v>>63)) }

// get reads a uvarint, or yields 0 after a failure.
func (c *coder) get() uint64 {
	if c.err != nil {
		return 0
	}
	// Most fields fit in a byte: an index, a count, a node, a slot.
	if c.pos < len(c.buf) && c.buf[c.pos] < 0x80 {
		c.pos++
		return uint64(c.buf[c.pos-1])
	}
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		c.corrupt("truncated uvarint")
		return 0
	}
	c.pos += n
	return v
}

// u64 codes a uvarint. Encoding a value under 0x80 — most are: an index,
// a count, a slot, a node — is inlined into the section.
func (c *coder) u64(p *uint64) {
	if !c.dec && *p < 0x80 {
		c.buf = append(c.buf, byte(*p))
		return
	}
	c.uvarint(p)
}

func (c *coder) uvarint(p *uint64) {
	if c.dec {
		*p = c.get()
	} else {
		c.put(*p)
	}
}

// i64 codes a varint: a uvarint of the value zig-zag encoded.
func (c *coder) i64(p *int64) {
	if !c.dec {
		c.putSigned(*p)
		return
	}
	u := c.get()
	*p = int64(u>>1) ^ -int64(u&1)
}

func (c *coder) byte(p *byte) {
	if c.dec {
		*p = c.getByte()
		return
	}
	c.buf = append(c.buf, *p)
}

func (c *coder) getByte() byte {
	if c.err != nil {
		return 0
	}
	if c.left() < 1 {
		c.corrupt("truncated byte")
		return 0
	}
	c.pos++
	return c.buf[c.pos-1]
}

func (c *coder) bool(p *bool) {
	var b byte
	if *p {
		b = 1
	}
	c.byte(&b)
	if c.dec {
		if b > 1 {
			c.corrupt("bool byte %d", b)
		}
		*p = b == 1
	}
}

func (c *coder) str(p *string) {
	if !c.dec {
		c.put(uint64(len(*p)))
		c.buf = append(c.buf, *p...)
		return
	}
	n := c.get()
	if n > uint64(c.left()) {
		c.corrupt("string of %d bytes with %d left", n, c.left())
		return
	}
	*p = string(c.buf[c.pos : c.pos+int(n)])
	c.pos += int(n)
}

// count codes an element count: encoding, it writes n and returns it;
// decoding, it returns the count read, bounded by the elements the bytes
// remaining can hold at least bytes each — the element's smallest encoding
// — so a corrupt count is refused before anything is made that long.
func (c *coder) count(n, least int) int {
	if !c.dec {
		c.reserve()
		c.put(uint64(n))
		return n
	}
	v := c.get()
	// A dstate's least is the header's k, 0 after a failed read.
	if v > uint64(c.left()/max(least, 1)) {
		c.corrupt("count %d of %d-byte elements with %d bytes left", v, least, c.left())
		return 0
	}
	return int(v)
}

// The smallest encodings of the list elements, in bytes: every field that
// is coded at all takes at least one byte (a zero, a nil reference, an
// empty list or string), so a dstate, a bucket per node, is k bytes at
// least.
const (
	minPage  = 3                // one set word: count, slot, expression
	minWord  = 2                // slot, expression
	minVar   = 2                // name, width
	minNode  = 3                // kind, width, a constant or the first operand
	minState = 16 + isa.NumRegs // 16 scalars and list counts, the registers
	minFrame = 2
	minRef   = 1 // an expression reference; a state id; a dstate id
	minEvent = 6
	minHist  = 6
	minTrace = 3
	minPRef  = 2 // a page reference: memory index, table index
	minSuper = 2 // state id, dstate count
	minModel = 2 // variable name, value
	minSamp  = 7
	minViol  = 6
)

// reserve keeps room at the end of an encoding buffer for what a list
// element appends, doubling the buffer when it runs short: the appends
// themselves grow a large buffer by a quarter at a time, and an Encode that
// finds its pooled buffer collected would copy the bytes four times over.
func (c *coder) reserve() {
	if cap(c.buf)-len(c.buf) < 1<<10 {
		c.buf = slices.Grow(c.buf, len(c.buf)+1<<10)
	}
}

// list codes the length of *p and returns *p, made that long when decoding;
// least is the smallest encoding of one element (see count).
func list[T any](c *coder, p *[]T, least int) []T {
	n := c.count(len(*p), least)
	if c.dec {
		*p = make([]T, n)
	}
	return *p
}

// blocks hands out decoded lists carved, each capped at its own length,
// from shared blocks rather than made one by one. The blocks double from
// 64 elements, none longer than limit: the most elements the bytes left
// can hold.
type blocks[T any] struct {
	free []T
	size int
}

func (b *blocks[T]) carve(n, limit int) []T {
	if len(b.free) < n {
		b.size = min(max(2*b.size, 64), limit)
		b.free = make([]T, max(n, b.size))
	}
	s := b.free[:n:n]
	b.free = b.free[n:]
	return s
}

// int codes an int as a varint; decoded, it must fit the platform int.
func (c *coder) int(p *int) {
	v := int64(*p)
	c.i64(&v)
	if c.dec {
		if *p = int(v); int64(*p) != v {
			c.corrupt("integer %d out of range", v)
		}
	}
}

// nat codes a non-negative int as a uvarint; decoded, it must fit an int.
func (c *coder) nat(p *int) {
	v := uint64(*p)
	c.u64(&v)
	if c.dec {
		if *p = int(v); *p < 0 || uint64(*p) != v {
			c.corrupt("integer %d out of range", v)
		}
	}
}

// u32 codes a uint32 as a uvarint; a decoded value past 32 bits is
// refused, naming what it was.
func (c *coder) u32(p *uint32, what string) {
	if !c.dec && *p < 0x80 {
		c.buf = append(c.buf, byte(*p))
		return
	}
	c.uint32(p, what)
}

func (c *coder) uint32(p *uint32, what string) {
	if !c.dec {
		c.put(uint64(*p))
		return
	}
	if v := c.get(); v <= math.MaxUint32 {
		*p = uint32(v)
	} else {
		c.corrupt("%s %d", what, v)
	}
}

// k codes a node count; decoded, it must be positive, or the failure is
// reported through format.
func (c *coder) k(p *int, format string) {
	k := c.count(*p, 1)
	if c.dec {
		if k <= 0 {
			c.corrupt(format, k)
		}
		*p = k
	}
}

// ref codes a nilable expression reference: 0 for nil, its number+1
// otherwise. Encoding a nil one is inlined.
func (c *coder) ref(p **expr.Expr) {
	if !c.dec && *p == nil {
		c.buf = append(c.buf, 0)
		return
	}
	c.expr(p)
}

func (c *coder) expr(p **expr.Expr) {
	if !c.dec {
		c.put(c.t.refID((*p).ID()))
		return
	}
	v := c.get()
	if v == 0 {
		return
	}
	if v-1 >= uint64(len(c.exprs)) {
		c.corrupt("expression reference %d of %d", v-1, len(c.exprs))
		return
	}
	*p = c.exprs[v-1]
}

// need codes an expression reference that must not be nil.
func (c *coder) need(p **expr.Expr) {
	c.ref(p)
	if c.dec && *p == nil {
		c.corrupt("nil expression where one is required")
	}
}

// --- the expression DAG ------------------------------------------------------

// exprTable assigns every serialized expression node a stable index:
// builder variables first (in creation order, so the decoder's var-id
// sequence replays exactly), then reachable non-variable nodes in
// first-visit post-order — every operand index precedes its user's, which
// makes decoding a single forward pass with no cycle risk. The indexes are
// kept in an array by node id (Expr.ID), stamped with an epoch, so a
// recycled table serves the next Encode without clearing.
type exprTable struct {
	epoch uint32
	slots []exprSlot   // node id → index, valid when stamped with epoch
	last  uint32       // the builder's highest node id
	nodes []*expr.Expr // the non-variable nodes, in index order
	nv    int
}

type exprSlot struct {
	epoch uint32
	idx   uint32
}

// reset empties the table for the nodes of a builder of n nodes and numbers
// its variables vars.
func (t *exprTable) reset(n int, vars []*expr.Expr) {
	t.last = uint32(n)
	t.epoch++
	if t.epoch == 0 { // wrapped: stamps of 2^32 encodes ago would match again
		clear(t.slots)
		t.epoch = 1
	}
	if n >= len(t.slots) {
		t.slots = append(t.slots, make([]exprSlot, n+1-len(t.slots))...)
	}
	t.nodes = t.nodes[:0]
	t.nv = len(vars)
	for i, v := range vars {
		t.slots[v.ID()] = exprSlot{epoch: t.epoch, idx: uint32(i)}
	}
}

// has reports whether node id is numbered; id must be a node of the builder.
func (t *exprTable) has(id uint32) bool { return t.slots[id].epoch == t.epoch }

// index returns the number of node id, which must be numbered.
func (t *exprTable) index(id uint32) uint64 { return uint64(t.slots[id].idx) }

// refID is the encoded reference to node id (0 for none).
func (t *exprTable) refID(id uint32) uint64 {
	if id == 0 {
		return 0
	}
	return t.index(id) + 1
}

// collect numbers root and every node below it that is not numbered yet.
// A root the builder cannot have made — its id is past the builder's last
// — fails the encode instead.
func (c *coder) collect(root *expr.Expr) {
	t := c.t
	if root == nil {
		return
	}
	if root.ID() > t.last {
		c.fail(fmt.Errorf("snap: expression %d is not a node of the encoding builder", root.ID()))
		return
	}
	if t.has(root.ID()) {
		return
	}
	// Operands are interned before their users, so every node below root
	// has a smaller id: the bound checked on root covers them all.
	type frame struct {
		e    *expr.Expr
		next int
	}
	stack := []frame{{e: root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if t.has(f.e.ID()) {
			stack = stack[:len(stack)-1]
			continue
		}
		if f.next < 3 {
			a := f.e.Arg(f.next)
			f.next++
			if a != nil && !t.has(a.ID()) {
				stack = append(stack, frame{e: a})
			}
			continue
		}
		t.slots[f.e.ID()] = exprSlot{epoch: t.epoch, idx: uint32(t.nv + len(t.nodes))}
		t.nodes = append(t.nodes, f.e)
		stack = stack[:len(stack)-1]
	}
}

// number numbers, after the builder's variables, every expression the
// snapshot references.
func (c *coder) number(s *Snapshot) {
	t := c.t
	t.reset(c.b.NumNodes(), c.vars)
	for si := range s.States {
		img := &s.States[si]
		for _, r := range img.Regs {
			c.collect(r)
		}
		for _, e := range img.PathCond {
			c.collect(e)
		}
		for _, ev := range img.Events {
			c.collect(ev.Arg)
			for _, d := range ev.Data {
				c.collect(d)
			}
		}
		for _, tr := range img.Trace {
			c.collect(tr.Val)
		}
	}
	for pi := range s.Pages {
		for _, id := range &s.Pages[pi] {
			if id > t.last {
				c.fail(fmt.Errorf("snap: page %d holds node %d of a %d-node builder", pi, id, t.last))
				return
			}
			if id != 0 && !t.has(id) {
				c.collect(c.b.Node(id))
			}
		}
	}
	for _, v := range s.Violations {
		c.collect(v.Cond)
	}
}

// encodeExprs writes the builder's variables by name and width, then the
// numbered nodes, each operand by its number.
func (c *coder) encodeExprs() {
	c.count(len(c.vars), minVar)
	for _, v := range c.vars {
		name, width := v.VarName(), byte(v.Width())
		c.str(&name)
		c.byte(&width)
	}
	c.count(len(c.t.nodes), minNode)
	for _, e := range c.t.nodes {
		c.buf = append(c.buf, byte(e.Kind()), byte(e.Width()))
		if e.IsConst() {
			c.put(e.ConstVal())
			continue
		}
		for i := 0; i < 3 && e.Arg(i) != nil; i++ {
			c.put(c.t.index(e.Arg(i).ID()))
		}
	}
}

// decodeExprs recreates the variables in b, then the nodes, every operand
// before its user, into c.exprs.
func (c *coder) decodeExprs() {
	nv := c.count(0, minVar)
	c.exprs = make([]*expr.Expr, 0, nv)
	for i := 0; i < nv && c.err == nil; i++ {
		var name string
		var width byte
		c.str(&name)
		c.byte(&width)
		if c.err != nil {
			return
		}
		if width < 1 || width > 64 {
			c.corrupt("variable %q of width %d", name, width)
			return
		}
		if prev, ok := c.b.LookupVar(name); ok && prev.Width() != int(width) {
			// Var would panic on a width conflict; a corrupt snapshot must
			// not be able to trigger that.
			c.corrupt("variable %q redeclared at width %d", name, width)
			return
		}
		c.exprs = append(c.exprs, c.b.Var(name, int(width)))
	}
	nn := c.count(0, minNode)
	for i := 0; i < nn && c.err == nil; i++ {
		var kind, width byte
		c.byte(&kind)
		c.byte(&width)
		if c.err != nil {
			return
		}
		arity, ok := expr.KindArity(expr.Kind(kind))
		if !ok || expr.Kind(kind) == expr.KindVar {
			c.corrupt("node of kind %d", kind)
			return
		}
		var val uint64
		var args []*expr.Expr
		if expr.Kind(kind) == expr.KindConst {
			val = c.get()
		} else {
			args = make([]*expr.Expr, arity)
			for j := range args {
				// Topological order: operands strictly precede users.
				ref := c.get()
				if ref >= uint64(len(c.exprs)) {
					c.corrupt("forward expression reference %d", ref)
					return
				}
				args[j] = c.exprs[ref]
			}
		}
		if c.err != nil {
			return
		}
		e, err := c.b.RawNode(expr.Kind(kind), int(width), val, args...)
		if err != nil {
			c.corrupt("%v", err)
			return
		}
		c.exprs = append(c.exprs, e)
	}
}

// --- the sections ------------------------------------------------------------

// snapshot codes s, all but the checksum.
func (c *coder) snapshot(s *Snapshot) {
	c.header(s)
	if c.dec {
		c.decodeExprs()
	} else {
		c.encodeExprs()
	}
	for i := range list(c, &s.Pages, minPage) {
		c.page(&s.Pages[i])
	}
	for i := range list(c, &s.States, minState) {
		c.state(&s.States[i], len(s.Pages))
	}
	if c.dec {
		s.Mapper = &core.MapperSnapshot{}
	}
	c.mapper(s)
	for i := range list(c, &s.Samples, minSamp) {
		c.sample(&s.Samples[i])
	}
	for i := range list(c, &s.Violations, minViol) {
		if c.dec {
			s.Violations[i] = &vm.Violation{}
		}
		c.violation(s.Violations[i])
	}
}

// header codes the magic, the version, the scalar fields and the stats
// section.
func (c *coder) header(s *Snapshot) {
	for _, want := range magic {
		got := want
		c.byte(&got)
		if got != want {
			c.corrupt("bad magic")
			return
		}
	}
	ver := byte(version)
	c.byte(&ver)
	if ver != version {
		c.corrupt("unsupported version %d (this reader speaks %d)", ver, version)
		return
	}
	c.nat((*int)(&s.Algorithm))
	if c.dec && (s.Algorithm < core.COBAlgorithm || s.Algorithm > core.SDSAlgorithm) {
		c.corrupt("algorithm %d", s.Algorithm)
	}
	c.k(&s.K, "k=%d")
	c.str(&s.Topology)
	c.u64(&s.Clock)
	c.u64(&s.Events)
	c.nat(&s.PeakStates)
	c.i64(&s.PeakMem)
	c.i64((*int64)(&s.PriorWall))
	if c.dec && s.PriorWall < 0 {
		c.corrupt("negative prior wall time")
	}
	c.u64(&s.NextStateID)
	c.stats(&s.Stats)
}

// stats codes the counters as the one JSON object ReportJSON and the job
// API print, under the same names, in a length-prefixed string: a counter
// added or removed changes the object, not the format. Decoding, a missing
// counter reads as zero, and an unknown one, a value out of its counter's
// range or anything after the object is refused.
func (c *coder) stats(st *metrics.RunStats) {
	var js string
	if !c.dec {
		b, _ := json.Marshal(st) // a struct of integers: it cannot fail
		js = string(b)
	}
	if c.str(&js); !c.dec || c.err != nil {
		return
	}
	d := json.NewDecoder(strings.NewReader(js))
	d.DisallowUnknownFields()
	if err := d.Decode(st); err != nil {
		c.corrupt("stats: %v", err)
	} else if end := d.InputOffset(); end != int64(len(js)) {
		c.corrupt("stats: %d bytes after the counters", int64(len(js))-end)
	}
}

// page codes one page of the table: the number of set words, then each set
// word's slot, ascending, and its expression. A page is made by a store, so
// it has a set word; one without is refused both ways.
func (c *coder) page(words *[vm.PageWords]uint32) {
	nset := 0
	for _, id := range words {
		if id != 0 {
			nset++
		}
	}
	if !c.dec && nset == 0 {
		c.fail(fmt.Errorf("snap: page with no set word"))
		return
	}
	if nset = c.count(nset, minWord); nset == 0 || nset > vm.PageWords {
		c.corrupt("page with %d set words", nset)
		return
	}
	last := -1
	for range nset {
		slot := uint64(last + 1)
		for !c.dec && words[slot] == 0 {
			slot++
		}
		c.u64(&slot)
		if c.dec && (slot >= vm.PageWords || int(slot) <= last) {
			c.corrupt("page slot %d out of order", slot)
			return
		}
		last = int(slot)
		if !c.dec {
			c.put(c.t.refID(words[slot]))
			continue
		}
		var e *expr.Expr
		c.need(&e)
		words[slot] = e.ID()
	}
}

// state codes one execution state; its pages index a table of npages.
func (c *coder) state(img *vm.StateImage, npages int) {
	c.u64(&img.ID)
	c.int(&img.Node)
	if c.dec && img.Node < 0 {
		c.corrupt("state %d on node %d", img.ID, img.Node)
	}
	for i := range img.Regs {
		c.ref(&img.Regs[i])
	}
	for i := range list(c, &img.Frames, minFrame) {
		c.int(&img.Frames[i].Fn)
		c.int(&img.Frames[i].PC)
	}
	c.int(&img.Fn)
	c.int(&img.PC)
	c.byte((*byte)(&img.Status))
	c.bool(&img.HasErr)
	if img.HasErr {
		c.str(&img.ErrMsg)
	}
	for i := range list(c, &img.PathCond, minRef) {
		e := &img.PathCond[i]
		c.need(e)
		if c.dec && *e != nil && (*e).Width() != 1 {
			c.corrupt("path constraint of width %d", (*e).Width())
		}
	}
	for i := range list(c, &img.Events, minEvent) {
		ev := &img.Events[i]
		c.u64(&ev.Time)
		c.byte((*byte)(&ev.Kind))
		c.int(&ev.Fn)
		c.ref(&ev.Arg)
		c.u32(&ev.Src, "event source")
		for j := range list(c, &ev.Data, minRef) {
			c.need(&ev.Data[j])
		}
	}
	for i := range list(c, &img.Hist, minHist) {
		h := &img.Hist[i]
		c.byte((*byte)(&h.Dir))
		if c.dec && (h.Dir < vm.DirSent || h.Dir > vm.DirRecv) {
			c.corrupt("history direction %d", h.Dir)
		}
		c.u32(&h.Peer, "history peer")
		c.u64(&h.Time)
		c.u32(&h.Seq, "history sequence")
		c.u64(&h.Payload)
		c.u64(&h.SenderFP)
	}
	for i := range list(c, &img.Trace, minTrace) {
		tr := &img.Trace[i]
		c.u64(&tr.Time)
		c.str(&tr.Msg)
		c.ref(&tr.Val)
	}
	c.u32(&img.SendSeq, "sequence counter")
	c.u32(&img.RecvSeq, "sequence counter")
	c.u32(&img.SymSeq, "sequence counter")
	c.u64(&img.Steps)
	for i := range list(c, &img.Pages, minPRef) {
		pr := &img.Pages[i]
		c.u32(&pr.MemIndex, "page index")
		if !c.dec && (pr.Page < 0 || pr.Page >= npages) {
			c.fail(fmt.Errorf("snap: state %d references page %d of %d", img.ID, pr.Page, npages))
		}
		page := uint64(pr.Page)
		c.u64(&page)
		if c.dec {
			if page >= uint64(npages) {
				c.corrupt("page reference %d of %d", page, npages)
			}
			pr.Page = int(page)
		}
	}
}

// mapper codes the state-mapping image of s: its dstates, each a bucket of
// state ids per node, then the super-dstates, which only SDS has. The
// algorithm and k are the header's; encoding, an image of another
// algorithm or k is refused.
func (c *coder) mapper(s *Snapshot) {
	m := s.Mapper
	if c.dec {
		m.Algorithm, m.K = s.Algorithm, s.K
	} else if m.Algorithm != s.Algorithm || m.K != s.K {
		c.fail(fmt.Errorf("snap: %v mapper with k=%d in a snapshot of %v with k=%d", m.Algorithm, m.K, s.Algorithm, s.K))
		return
	}
	for i := range list(c, &m.DStates, m.K) {
		ds := &m.DStates[i]
		if !c.dec && len(*ds) != m.K {
			c.fail(fmt.Errorf("snap: dstate with %d nodes, want %d", len(*ds), m.K))
			return
		}
		if c.dec && c.err == nil {
			// A bucket takes a byte at least, its count.
			*ds = c.buckets.carve(m.K, c.left())
		}
		for node := range *ds {
			c.ids(&(*ds)[node])
		}
	}
	for i := range list(c, &m.Supers, minSuper) {
		su := &m.Supers[i]
		c.u64(&su.StateID)
		for j := range list(c, &su.DStateIDs, minRef) {
			c.nat(&su.DStateIDs[j])
		}
	}
}

// ids codes a bucket of state ids.
func (c *coder) ids(p *[]uint64) {
	n := c.count(len(*p), minRef)
	if c.dec {
		*p = c.idBlock.carve(n, c.left())
	}
	for i := range *p {
		c.u64(&(*p)[i])
	}
}

func (c *coder) sample(sm *metrics.Sample) {
	c.i64((*int64)(&sm.Wall))
	c.u64(&sm.VirtualTime)
	c.int(&sm.States)
	c.int(&sm.Groups)
	c.i64(&sm.MemBytes)
	c.u64(&sm.Instructions)
	c.i64(&sm.SolverQueries)
}

// violation codes one violation, its model by variable name in ascending
// order.
func (c *coder) violation(v *vm.Violation) {
	c.int(&v.Node)
	c.u64(&v.Time)
	c.str(&v.Msg)
	c.u64(&v.StateID)
	c.ref(&v.Cond)
	n := c.count(len(v.Model), minModel)
	var names []string
	if c.dec {
		v.Model = make(expr.Env, n)
	} else {
		names = make([]string, 0, n)
		for name := range v.Model {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	for i := range n {
		var name string
		if !c.dec {
			name = names[i]
		}
		c.str(&name)
		val := v.Model[name]
		c.u64(&val)
		if c.dec {
			if _, dup := v.Model[name]; dup {
				c.corrupt("model variable %q twice", name)
				return
			}
			v.Model[name] = val
		}
	}
}

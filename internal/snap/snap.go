// Package snap implements the durable checkpoint format: a versioned,
// deterministic binary snapshot of a whole exploration frontier — VM
// states, COW memory pages (deduplicated), path conditions as a
// topological encoding of the hash-consed expression DAG, the
// state-mapping structures of all three algorithms, the event queues, and
// the virtual clock.
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
// an error wrapping ErrCorrupt, never a panic. A trailing FNV-1a checksum
// rejects most corruption before parsing begins; the structural checks
// behind it make the decoder total anyway (the fuzz target's contract).
//
// Solver state is deliberately absent from snapshots: it is derived data
// that belongs to the solver, not to any execution state, so a restore
// rebuilds none of it and the resumed run's first queries encode what they
// need.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"sync"
	"time"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/metrics"
	"sde/internal/vm"
)

// ErrCorrupt is wrapped by every decoding failure.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

var magic = []byte("SDEsnp\x00")

// version is the one format this build reads and writes; WireVersion
// tracks it, so bumping it (for a snapshot or a protocol change alike)
// makes older peers reject the handshake instead of misparsing what they
// do not know. Version 11 is version 10 minus the stats section's
// SlicedFactors and ConcretizedReads counters, which went with the query
// optimizer (DESIGN §4).
const version = 11

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

// --- encoding ----------------------------------------------------------------

type writer struct {
	buf []byte
}

func (w *writer) u64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) i64(v int64)  { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) byte(v byte)  { w.buf = append(w.buf, v) }

func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) bool(v bool) {
	if v {
		w.byte(1)
		return
	}
	w.byte(0)
}

// exprTable assigns every serialized expression node a stable index:
// builder variables first (in creation order, so the decoder's var-id
// sequence replays exactly), then reachable non-variable nodes in
// first-visit post-order — every operand index precedes its user's, which
// makes decoding a single forward pass with no cycle risk. The indexes are
// kept in an array by node id (Expr.ID), stamped with an epoch, so a table
// recycled through exprTables serves the next Encode without clearing.
type exprTable struct {
	epoch uint32
	slots []exprSlot   // node id → index, valid when stamped with epoch
	last  uint32       // the builder's highest node id
	nodes []*expr.Expr // the non-variable nodes, in index order
	nv    int
	err   error // the first node collect met that is not the builder's
}

type exprSlot struct {
	epoch uint32
	idx   uint32
}

// exprTables recycles the tables of Encode, so an encode allocates none
// once its pooled table has grown to the builder.
var exprTables = sync.Pool{New: func() any { return new(exprTable) }}

// release returns t to exprTables, dropping its hold on the builder's nodes.
func (t *exprTable) release() {
	clear(t.nodes)
	t.nodes = t.nodes[:0]
	exprTables.Put(t)
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
	t.err = nil
	for i, v := range vars {
		t.slots[v.ID()] = exprSlot{epoch: t.epoch, idx: uint32(i)}
	}
}

// has reports whether node id is numbered; id must be a node of the builder.
func (t *exprTable) has(id uint32) bool { return t.slots[id].epoch == t.epoch }

// index returns the number of node id, which must be numbered.
func (t *exprTable) index(id uint32) uint64 { return uint64(t.slots[id].idx) }

// collect numbers root and every node below it that is not numbered yet.
// A root the builder cannot have made — its id is past the builder's last
// — is recorded in t.err instead.
func (t *exprTable) collect(root *expr.Expr) {
	if root == nil {
		return
	}
	if root.ID() > t.last {
		if t.err == nil {
			t.err = fmt.Errorf("snap: expression %d is not a node of the encoding builder", root.ID())
		}
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

// ref encodes a nilable expression reference: 0 for nil, index+1 otherwise.
func (w *writer) ref(t *exprTable, e *expr.Expr) {
	w.u64(t.refID(e.ID()))
}

// refID is the encoded reference to node id (0 for none).
func (t *exprTable) refID(id uint32) uint64 {
	if id == 0 {
		return 0
	}
	return t.index(id) + 1
}

// collectExprs numbers every expression the snapshot references (after
// the variables vars of b) into t and counts the memory words set over all
// pages.
func (s *Snapshot) collectExprs(t *exprTable, b *expr.Builder, vars []*expr.Expr) (words int, err error) {
	t.reset(b.NumNodes(), vars)
	for si := range s.States {
		img := &s.States[si]
		for _, r := range img.Regs {
			t.collect(r)
		}
		for _, c := range img.PathCond {
			t.collect(c)
		}
		for _, ev := range img.Events {
			t.collect(ev.Arg)
			for _, d := range ev.Data {
				t.collect(d)
			}
		}
		for _, tr := range img.Trace {
			t.collect(tr.Val)
		}
	}
	for pi := range s.Pages {
		for _, id := range &s.Pages[pi] {
			if id == 0 {
				continue
			}
			words++
			if id > t.last {
				return 0, fmt.Errorf("snap: page %d holds node %d of a %d-node builder", pi, id, t.last)
			}
			if !t.has(id) {
				t.collect(b.Node(id))
			}
		}
	}
	for _, v := range s.Violations {
		t.collect(v.Cond)
	}
	return words, t.err
}

// Encode serializes the snapshot. b must be the builder that produced
// every expression in it; all of b's variables are serialized (reachable
// or not) so the restored builder assigns future variable ids exactly as
// the original would have.
func (s *Snapshot) Encode(b *expr.Builder) ([]byte, error) {
	if s.Mapper == nil {
		return nil, fmt.Errorf("snap: snapshot without mapper")
	}
	vars := b.Vars()
	t := exprTables.Get().(*exprTable)
	defer t.release()
	words, err := s.collectExprs(t, b, vars)
	if err != nil {
		return nil, err
	}

	w := writer{buf: make([]byte, 0, s.sizeHint(t, vars, words))}
	w.buf = append(w.buf, magic...)
	w.byte(version)
	w.u64(uint64(s.Algorithm))
	w.u64(uint64(s.K))
	w.str(s.Topology)
	w.u64(s.Clock)
	w.u64(s.Events)
	w.u64(uint64(s.PeakStates))
	w.i64(s.PeakMem)
	w.i64(int64(s.PriorWall))
	w.u64(s.NextStateID)
	walkStats(reflect.ValueOf(s.Stats), func(v reflect.Value) error {
		if v.CanInt() {
			w.i64(v.Int())
		} else {
			w.u64(v.Uint())
		}
		return nil
	})

	w.u64(uint64(len(vars)))
	for _, v := range vars {
		w.str(v.VarName())
		w.byte(byte(v.Width()))
	}
	w.u64(uint64(len(t.nodes)))
	for _, e := range t.nodes {
		w.byte(byte(e.Kind()))
		w.byte(byte(e.Width()))
		if e.IsConst() {
			w.u64(e.ConstVal())
			continue
		}
		for i := 0; i < 3; i++ {
			a := e.Arg(i)
			if a == nil {
				break
			}
			w.u64(t.index(a.ID()))
		}
	}

	w.u64(uint64(len(s.Pages)))
	for pi := range s.Pages {
		pw := &s.Pages[pi]
		nset := 0
		for _, id := range pw {
			if id != 0 {
				nset++
			}
		}
		w.u64(uint64(nset))
		for slot, id := range pw {
			if id != 0 {
				w.u64(uint64(slot))
				w.u64(t.refID(id))
			}
		}
	}

	w.u64(uint64(len(s.States)))
	for si := range s.States {
		if w, err = encodeState(w, t, &s.States[si], len(s.Pages)); err != nil {
			return nil, err
		}
	}
	if w, err = encodeMapper(w, s.Mapper); err != nil {
		return nil, err
	}

	w.u64(uint64(len(s.Samples)))
	for _, sm := range s.Samples {
		w.i64(int64(sm.Wall))
		w.u64(sm.VirtualTime)
		w.i64(int64(sm.States))
		w.i64(int64(sm.Groups))
		w.i64(sm.MemBytes)
		w.u64(sm.Instructions)
		w.i64(sm.SolverQueries)
	}

	w.u64(uint64(len(s.Violations)))
	for _, v := range s.Violations {
		w.i64(int64(v.Node))
		w.u64(v.Time)
		w.str(v.Msg)
		w.u64(v.StateID)
		w.ref(t, v.Cond)
		names := make([]string, 0, len(v.Model))
		for name := range v.Model {
			names = append(names, name)
		}
		sort.Strings(names)
		w.u64(uint64(len(names)))
		for _, name := range names {
			w.str(name)
			w.u64(v.Model[name])
		}
	}

	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], fnv64a(w.buf))
	return append(w.buf, sum[:]...), nil
}

// walkStats calls leaf on every counter of a metrics.RunStats (or of a
// pointer's worth of it, to set them), parts and fields in declaration
// order: the stats section is whatever the type declares, one varint per
// counter.
func walkStats(v reflect.Value, leaf func(reflect.Value) error) error {
	if v.Kind() != reflect.Struct {
		return leaf(v)
	}
	for i := 0; i < v.NumField(); i++ {
		if err := walkStats(v.Field(i), leaf); err != nil {
			return err
		}
	}
	return nil
}

// uvarLen, ivarLen and strLen are the encoded lengths of a uvarint, a
// varint and a length-prefixed string.
func uvarLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
func ivarLen(v int) int    { return uvarLen(uint64(v)<<1 ^ uint64(int64(v)>>63)) }
func strLen(s string) int  { return uvarLen(uint64(len(s))) + len(s) }

// sizeHint is the capacity Encode starts its buffer with, so that one
// allocation serves the whole encode. It mirrors Encode section by section
// from what is known before the first byte is written: scalar fields and
// list lengths at their exact width, list elements at the widest their
// kind can be in this snapshot (an expression reference, a state id, a
// page number, a virtual time) without reading them, hashes and header
// counters at the widest a varint gets, the stats section exactly. An
// element wider than assumed costs a regrowth, nothing else.
func (s *Snapshot) sizeHint(t *exprTable, vars []*expr.Expr, words int) int {
	const (
		small = 3                     // a node, function, pc, slot or bucket length
		seq   = 5                     // a 32-bit sequence number
		wide  = binary.MaxVarintLen64 // a hash, counter or model value
	)
	ref := uvarLen(uint64(t.nv + len(t.nodes) + 1))
	id := uvarLen(s.NextStateID)
	page := uvarLen(uint64(len(s.Pages)))
	past := uvarLen(s.Clock) // history and trace times
	due := past + 1          // pending events lie a little ahead of the clock
	listLen := func(n int) int { return uvarLen(uint64(n)) }

	n := len(magic) + 1 + strLen(s.Topology) + 8*wide + 8 // header and checksum
	walkStats(reflect.ValueOf(s.Stats), func(v reflect.Value) error {
		if v.CanInt() {
			n += ivarLen(int(v.Int()))
		} else {
			n += uvarLen(v.Uint())
		}
		return nil
	})
	n += listLen(len(vars))
	for _, v := range vars {
		n += strLen(v.VarName()) + 1
	}
	n += listLen(len(t.nodes))
	for _, e := range t.nodes {
		if e.IsConst() {
			n += 2 + uvarLen(e.ConstVal())
		} else {
			n += 2 + 3*ref
		}
	}
	n += listLen(len(s.Pages)) + len(s.Pages)*small + words*(small+ref)

	state := func(img *vm.StateImage) int {
		n := uvarLen(img.ID) + ivarLen(img.Node) + ivarLen(img.Fn) + ivarLen(img.PC) + 2 +
			listLen(len(img.Frames)) + len(img.Frames)*2*small +
			listLen(len(img.PathCond)) + len(img.PathCond)*ref +
			listLen(len(img.Events)) + len(img.Events)*(due+1+small+ref+small+small) +
			listLen(len(img.Hist)) + len(img.Hist)*(1+small+past+seq+2*wide) +
			listLen(len(img.Trace)) + len(img.Trace)*(past+ref) +
			3*seq + uvarLen(img.Steps) +
			listLen(len(img.Pages)) + len(img.Pages)*(small+page)
		for _, r := range img.Regs {
			if r != nil {
				n += ref - 1
			}
		}
		n += len(img.Regs)
		if img.HasErr {
			n += strLen(img.ErrMsg)
		}
		for _, ev := range img.Events {
			n += len(ev.Data) * ref
		}
		for _, tr := range img.Trace {
			n += strLen(tr.Msg)
		}
		return n
	}
	n += listLen(len(s.States))
	for si := range s.States {
		n += state(&s.States[si])
	}

	buckets := func(byNode [][]uint64) int {
		n := 0
		for _, b := range byNode {
			n += listLen(len(b)) + len(b)*id
		}
		return n
	}
	m := s.Mapper
	n += 5 * small
	n += len(m.Scenarios) * m.K * id
	for _, ds := range m.DStates {
		n += buckets(ds)
	}
	for _, d := range m.VDStates {
		n += seq + buckets(d.ByNode)
	}
	for _, su := range m.Supers {
		n += id + listLen(len(su.DStateIDs)) + len(su.DStateIDs)*uvarLen(uint64(m.NextDSID))
	}

	n += listLen(len(s.Samples)) + len(s.Samples)*7*6 // nanoseconds, bytes, instruction counts: six each
	n += listLen(len(s.Violations))
	for _, v := range s.Violations {
		n += small + past + strLen(v.Msg) + id + ref + small
		for name := range v.Model {
			n += strLen(name) + wide
		}
	}
	return n
}

// encodeState and encodeMapper take the writer by value and hand it back:
// the buffer then lives in their own frame, and the appends that grow it
// store no pointer through one, which costs a write barrier each while the
// collector runs.
func encodeState(w writer, t *exprTable, img *vm.StateImage, npages int) (writer, error) {
	w.u64(img.ID)
	w.i64(int64(img.Node))
	for _, r := range img.Regs {
		w.ref(t, r)
	}
	w.u64(uint64(len(img.Frames)))
	for _, fr := range img.Frames {
		w.i64(int64(fr.Fn))
		w.i64(int64(fr.PC))
	}
	w.i64(int64(img.Fn))
	w.i64(int64(img.PC))
	w.byte(byte(img.Status))
	w.bool(img.HasErr)
	if img.HasErr {
		w.str(img.ErrMsg)
	}
	w.u64(uint64(len(img.PathCond)))
	for _, c := range img.PathCond {
		w.ref(t, c)
	}
	w.u64(uint64(len(img.Events)))
	for _, ev := range img.Events {
		w.u64(ev.Time)
		w.byte(byte(ev.Kind))
		w.i64(int64(ev.Fn))
		w.ref(t, ev.Arg)
		w.u64(uint64(ev.Src))
		w.u64(uint64(len(ev.Data)))
		for _, d := range ev.Data {
			w.ref(t, d)
		}
	}
	w.u64(uint64(len(img.Hist)))
	for _, h := range img.Hist {
		w.byte(byte(h.Dir))
		w.u64(uint64(h.Peer))
		w.u64(h.Time)
		w.u64(uint64(h.Seq))
		w.u64(h.Payload)
		w.u64(h.SenderFP)
	}
	w.u64(uint64(len(img.Trace)))
	for _, tr := range img.Trace {
		w.u64(tr.Time)
		w.str(tr.Msg)
		w.ref(t, tr.Val)
	}
	w.u64(uint64(img.SendSeq))
	w.u64(uint64(img.RecvSeq))
	w.u64(uint64(img.SymSeq))
	w.u64(img.Steps)
	w.u64(uint64(len(img.Pages)))
	for _, pr := range img.Pages {
		if pr.Page < 0 || pr.Page >= npages {
			return w, fmt.Errorf("snap: state %d references page %d of %d", img.ID, pr.Page, npages)
		}
		w.u64(uint64(pr.MemIndex))
		w.u64(uint64(pr.Page))
	}
	return w, nil
}

func encodeMapper(w writer, m *core.MapperSnapshot) (writer, error) {
	w.u64(uint64(m.Algorithm))
	w.u64(uint64(m.K))
	switch m.Algorithm {
	case core.COBAlgorithm:
		w.u64(uint64(len(m.Scenarios)))
		for _, row := range m.Scenarios {
			if len(row) != m.K {
				return w, fmt.Errorf("snap: COB dscenario with %d nodes, want %d", len(row), m.K)
			}
			for _, id := range row {
				w.u64(id)
			}
		}
	case core.COWAlgorithm:
		w.u64(uint64(len(m.DStates)))
		for _, ds := range m.DStates {
			if len(ds) != m.K {
				return w, fmt.Errorf("snap: COW dstate with %d nodes, want %d", len(ds), m.K)
			}
			for _, bucket := range ds {
				w.u64(uint64(len(bucket)))
				for _, id := range bucket {
					w.u64(id)
				}
			}
		}
	case core.SDSAlgorithm:
		w.u64(uint64(m.NextDSID))
		w.u64(uint64(len(m.VDStates)))
		for _, d := range m.VDStates {
			if len(d.ByNode) != m.K {
				return w, fmt.Errorf("snap: SDS dstate with %d nodes, want %d", len(d.ByNode), m.K)
			}
			w.u64(uint64(d.ID))
			for _, bucket := range d.ByNode {
				w.u64(uint64(len(bucket)))
				for _, id := range bucket {
					w.u64(id)
				}
			}
		}
		w.u64(uint64(len(m.Supers)))
		for _, s := range m.Supers {
			w.u64(s.StateID)
			w.u64(uint64(len(s.DStateIDs)))
			for _, id := range s.DStateIDs {
				w.u64(uint64(id))
			}
		}
	default:
		return w, fmt.Errorf("snap: mapper snapshot with unknown algorithm %d", m.Algorithm)
	}
	return w, nil
}

// --- decoding ----------------------------------------------------------------

type reader struct {
	data []byte
	pos  int
}

func (r *reader) corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s (offset %d)", ErrCorrupt, fmt.Sprintf(format, args...), r.pos)
}

func (r *reader) remaining() int { return len(r.data) - r.pos }

func (r *reader) u64() (uint64, error) {
	// Most fields fit in a byte: an index, a count, a node, a slot.
	if r.pos < len(r.data) && r.data[r.pos] < 0x80 {
		r.pos++
		return uint64(r.data[r.pos-1]), nil
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.corrupt("truncated uvarint")
	}
	r.pos += n
	return v, nil
}

func (r *reader) i64() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.corrupt("truncated varint")
	}
	r.pos += n
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, r.corrupt("truncated byte")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) bool() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, r.corrupt("bool byte %d", b)
	}
	return b == 1, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u64()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", r.corrupt("string of %d bytes with %d left", n, r.remaining())
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// count reads an element count and bounds it by the bytes remaining (each
// element takes at least one encoded byte), so a corrupt count cannot
// trigger a huge allocation.
func (r *reader) count() (int, error) {
	n, err := r.u64()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()) {
		return 0, r.corrupt("count %d with %d bytes left", n, r.remaining())
	}
	return int(n), nil
}

// signedInt reads a varint that must fit the platform int.
func (r *reader) signedInt() (int, error) {
	v, err := r.i64()
	if err != nil {
		return 0, err
	}
	if v < int64(minInt) || v > int64(maxInt) {
		return 0, r.corrupt("integer %d out of range", v)
	}
	return int(v), nil
}

// unsignedInt reads a uvarint that must fit a non-negative int.
func (r *reader) unsignedInt() (int, error) {
	v, err := r.u64()
	if err != nil {
		return 0, err
	}
	if v > uint64(maxInt) {
		return 0, r.corrupt("integer %d out of range", v)
	}
	return int(v), nil
}

const (
	maxInt = int(^uint(0) >> 1)
	minInt = -maxInt - 1
)

// Decode parses a snapshot. b should be a fresh builder for the resumed
// run's context: all of the snapshot's variables are recreated in their
// original creation order, so variables created after the resume receive
// the same ids they would have in an uninterrupted run. Any failure wraps
// ErrCorrupt.
func Decode(data []byte, b *expr.Builder) (*Snapshot, error) {
	if len(data) < len(magic)+1+8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any snapshot", ErrCorrupt, len(data))
	}
	body := data[:len(data)-8]
	want := binary.LittleEndian.Uint64(data[len(data)-8:])
	if fnv64a(body) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := &reader{data: body}
	for _, c := range magic {
		got, err := r.byte()
		if err != nil {
			return nil, err
		}
		if got != c {
			return nil, r.corrupt("bad magic")
		}
	}
	ver, err := r.byte()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, r.corrupt("unsupported version %d (this reader speaks %d)", ver, version)
	}

	s := &Snapshot{}
	if v, err := r.u64(); err != nil {
		return nil, err
	} else {
		s.Algorithm = core.Algorithm(v)
	}
	if s.Algorithm < core.COBAlgorithm || s.Algorithm > core.SDSAlgorithm {
		return nil, r.corrupt("algorithm %d", s.Algorithm)
	}
	k, err := r.count()
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, r.corrupt("k=%d", k)
	}
	s.K = k
	if s.Topology, err = r.str(); err != nil {
		return nil, err
	}
	if s.Clock, err = r.u64(); err != nil {
		return nil, err
	}
	if s.Events, err = r.u64(); err != nil {
		return nil, err
	}
	peakStates, err := r.u64()
	if err != nil {
		return nil, err
	}
	s.PeakStates = int(peakStates)
	if s.PeakMem, err = r.i64(); err != nil {
		return nil, err
	}
	wall, err := r.i64()
	if err != nil {
		return nil, err
	}
	if wall < 0 {
		return nil, r.corrupt("negative prior wall time")
	}
	s.PriorWall = time.Duration(wall)
	if s.NextStateID, err = r.u64(); err != nil {
		return nil, err
	}
	err = walkStats(reflect.ValueOf(&s.Stats).Elem(), func(v reflect.Value) error {
		if v.CanInt() {
			x, err := r.i64()
			if v.OverflowInt(x) {
				return r.corrupt("counter %d out of range", x)
			}
			v.SetInt(x)
			return err
		}
		x, err := r.u64()
		v.SetUint(x)
		return err
	})
	if err != nil {
		return nil, err
	}

	exprs, err := decodeExprs(r, b)
	if err != nil {
		return nil, err
	}
	// getRef resolves a nilable reference (0 = nil, otherwise index+1).
	getRef := func() (*expr.Expr, error) {
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		if v == 0 {
			return nil, nil
		}
		if v-1 >= uint64(len(exprs)) {
			return nil, r.corrupt("expression reference %d of %d", v-1, len(exprs))
		}
		return exprs[v-1], nil
	}
	mustRef := func() (*expr.Expr, error) {
		e, err := getRef()
		if err != nil {
			return nil, err
		}
		if e == nil {
			return nil, r.corrupt("nil expression where one is required")
		}
		return e, nil
	}

	np, err := r.count()
	if err != nil {
		return nil, err
	}
	s.Pages = make([][vm.PageWords]uint32, np)
	for i := range s.Pages {
		nset, err := r.count()
		if err != nil {
			return nil, err
		}
		if nset > vm.PageWords {
			return nil, r.corrupt("page with %d set words", nset)
		}
		words := &s.Pages[i]
		last := -1
		for j := 0; j < nset; j++ {
			slot, err := r.u64()
			if err != nil {
				return nil, err
			}
			if slot >= vm.PageWords || int(slot) <= last {
				return nil, r.corrupt("page slot %d out of order", slot)
			}
			last = int(slot)
			e, err := mustRef()
			if err != nil {
				return nil, err
			}
			words[slot] = e.ID()
		}
	}

	ns, err := r.count()
	if err != nil {
		return nil, err
	}
	s.States = make([]vm.StateImage, 0, ns)
	for i := 0; i < ns; i++ {
		img, err := decodeState(r, getRef, mustRef, np)
		if err != nil {
			return nil, err
		}
		s.States = append(s.States, img)
	}

	if s.Mapper, err = decodeMapper(r); err != nil {
		return nil, err
	}

	nsamples, err := r.count()
	if err != nil {
		return nil, err
	}
	s.Samples = make([]metrics.Sample, 0, nsamples)
	for i := 0; i < nsamples; i++ {
		var sm metrics.Sample
		wall, err := r.i64()
		if err != nil {
			return nil, err
		}
		sm.Wall = time.Duration(wall)
		if sm.VirtualTime, err = r.u64(); err != nil {
			return nil, err
		}
		if sm.States, err = r.signedInt(); err != nil {
			return nil, err
		}
		if sm.Groups, err = r.signedInt(); err != nil {
			return nil, err
		}
		if sm.MemBytes, err = r.i64(); err != nil {
			return nil, err
		}
		if sm.Instructions, err = r.u64(); err != nil {
			return nil, err
		}
		if sm.SolverQueries, err = r.i64(); err != nil {
			return nil, err
		}
		s.Samples = append(s.Samples, sm)
	}

	nviol, err := r.count()
	if err != nil {
		return nil, err
	}
	s.Violations = make([]*vm.Violation, 0, nviol)
	for i := 0; i < nviol; i++ {
		v := &vm.Violation{}
		if v.Node, err = r.signedInt(); err != nil {
			return nil, err
		}
		if v.Time, err = r.u64(); err != nil {
			return nil, err
		}
		if v.Msg, err = r.str(); err != nil {
			return nil, err
		}
		if v.StateID, err = r.u64(); err != nil {
			return nil, err
		}
		if v.Cond, err = getRef(); err != nil {
			return nil, err
		}
		nmodel, err := r.count()
		if err != nil {
			return nil, err
		}
		v.Model = make(expr.Env, nmodel)
		for j := 0; j < nmodel; j++ {
			name, err := r.str()
			if err != nil {
				return nil, err
			}
			if _, dup := v.Model[name]; dup {
				return nil, r.corrupt("model variable %q twice", name)
			}
			if v.Model[name], err = r.u64(); err != nil {
				return nil, err
			}
		}
		s.Violations = append(s.Violations, v)
	}

	if r.remaining() != 0 {
		return nil, r.corrupt("%d trailing bytes", r.remaining())
	}
	return s, nil
}

func decodeExprs(r *reader, b *expr.Builder) ([]*expr.Expr, error) {
	nv, err := r.count()
	if err != nil {
		return nil, err
	}
	exprs := make([]*expr.Expr, 0, nv)
	for i := 0; i < nv; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		width, err := r.byte()
		if err != nil {
			return nil, err
		}
		if width < 1 || width > 64 {
			return nil, r.corrupt("variable %q of width %d", name, width)
		}
		if prev, ok := b.LookupVar(name); ok && prev.Width() != int(width) {
			// Var would panic on a width conflict; a corrupt snapshot must
			// not be able to trigger that.
			return nil, r.corrupt("variable %q redeclared at width %d", name, width)
		}
		exprs = append(exprs, b.Var(name, int(width)))
	}
	nn, err := r.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nn; i++ {
		kb, err := r.byte()
		if err != nil {
			return nil, err
		}
		kind := expr.Kind(kb)
		width, err := r.byte()
		if err != nil {
			return nil, err
		}
		arity, ok := expr.KindArity(kind)
		if !ok || kind == expr.KindVar {
			return nil, r.corrupt("node of kind %d", kind)
		}
		var val uint64
		var args []*expr.Expr
		if kind == expr.KindConst {
			if val, err = r.u64(); err != nil {
				return nil, err
			}
		} else {
			args = make([]*expr.Expr, arity)
			for j := range args {
				ref, err := r.u64()
				if err != nil {
					return nil, err
				}
				// Topological order: operands strictly precede users.
				if ref >= uint64(len(exprs)) {
					return nil, r.corrupt("forward expression reference %d", ref)
				}
				args[j] = exprs[ref]
			}
		}
		e, err := b.RawNode(kind, int(width), val, args...)
		if err != nil {
			return nil, r.corrupt("%v", err)
		}
		exprs = append(exprs, e)
	}
	return exprs, nil
}

func decodeState(r *reader, getRef, mustRef func() (*expr.Expr, error), npages int) (vm.StateImage, error) {
	var img vm.StateImage
	var err error
	if img.ID, err = r.u64(); err != nil {
		return img, err
	}
	if img.Node, err = r.signedInt(); err != nil {
		return img, err
	}
	if img.Node < 0 {
		return img, r.corrupt("state %d on node %d", img.ID, img.Node)
	}
	for i := range img.Regs {
		if img.Regs[i], err = getRef(); err != nil {
			return img, err
		}
	}
	nframes, err := r.count()
	if err != nil {
		return img, err
	}
	img.Frames = make([]vm.FrameImage, nframes)
	for i := range img.Frames {
		fr := &img.Frames[i]
		if fr.Fn, err = r.signedInt(); err != nil {
			return img, err
		}
		if fr.PC, err = r.signedInt(); err != nil {
			return img, err
		}
	}
	if img.Fn, err = r.signedInt(); err != nil {
		return img, err
	}
	if img.PC, err = r.signedInt(); err != nil {
		return img, err
	}
	status, err := r.byte()
	if err != nil {
		return img, err
	}
	img.Status = vm.Status(status)
	if img.HasErr, err = r.bool(); err != nil {
		return img, err
	}
	if img.HasErr {
		if img.ErrMsg, err = r.str(); err != nil {
			return img, err
		}
	}
	ncond, err := r.count()
	if err != nil {
		return img, err
	}
	img.PathCond = make([]*expr.Expr, ncond)
	for i := range img.PathCond {
		c, err := mustRef()
		if err != nil {
			return img, err
		}
		if c.Width() != 1 {
			return img, r.corrupt("path constraint of width %d", c.Width())
		}
		img.PathCond[i] = c
	}
	nevents, err := r.count()
	if err != nil {
		return img, err
	}
	img.Events = make([]vm.EventImage, nevents)
	for i := range img.Events {
		ev := &img.Events[i]
		if ev.Time, err = r.u64(); err != nil {
			return img, err
		}
		kind, err := r.byte()
		if err != nil {
			return img, err
		}
		ev.Kind = vm.EventKind(kind)
		if ev.Fn, err = r.signedInt(); err != nil {
			return img, err
		}
		if ev.Arg, err = getRef(); err != nil {
			return img, err
		}
		src, err := r.u64()
		if err != nil {
			return img, err
		}
		if src > uint64(^uint32(0)) {
			return img, r.corrupt("event source %d", src)
		}
		ev.Src = uint32(src)
		ndata, err := r.count()
		if err != nil {
			return img, err
		}
		ev.Data = make([]*expr.Expr, ndata)
		for j := range ev.Data {
			if ev.Data[j], err = mustRef(); err != nil {
				return img, err
			}
		}
	}
	nhist, err := r.count()
	if err != nil {
		return img, err
	}
	img.Hist = make([]vm.HistEntry, nhist)
	for i := range img.Hist {
		h := &img.Hist[i]
		dir, err := r.byte()
		if err != nil {
			return img, err
		}
		if dir < byte(vm.DirSent) || dir > byte(vm.DirRecv) {
			return img, r.corrupt("history direction %d", dir)
		}
		h.Dir = vm.Dir(dir)
		peer, err := r.u64()
		if err != nil {
			return img, err
		}
		if peer > uint64(^uint32(0)) {
			return img, r.corrupt("history peer %d", peer)
		}
		h.Peer = uint32(peer)
		if h.Time, err = r.u64(); err != nil {
			return img, err
		}
		seq, err := r.u64()
		if err != nil {
			return img, err
		}
		if seq > uint64(^uint32(0)) {
			return img, r.corrupt("history sequence %d", seq)
		}
		h.Seq = uint32(seq)
		if h.Payload, err = r.u64(); err != nil {
			return img, err
		}
		if h.SenderFP, err = r.u64(); err != nil {
			return img, err
		}
	}
	ntrace, err := r.count()
	if err != nil {
		return img, err
	}
	img.Trace = make([]vm.TraceEntry, ntrace)
	for i := range img.Trace {
		tr := &img.Trace[i]
		if tr.Time, err = r.u64(); err != nil {
			return img, err
		}
		if tr.Msg, err = r.str(); err != nil {
			return img, err
		}
		if tr.Val, err = getRef(); err != nil {
			return img, err
		}
	}
	for _, dst := range []*uint32{&img.SendSeq, &img.RecvSeq, &img.SymSeq} {
		v, err := r.u64()
		if err != nil {
			return img, err
		}
		if v > uint64(^uint32(0)) {
			return img, r.corrupt("sequence counter %d", v)
		}
		*dst = uint32(v)
	}
	if img.Steps, err = r.u64(); err != nil {
		return img, err
	}
	nrefs, err := r.count()
	if err != nil {
		return img, err
	}
	img.Pages = make([]vm.PageRef, nrefs)
	for i := range img.Pages {
		pr := &img.Pages[i]
		idx, err := r.u64()
		if err != nil {
			return img, err
		}
		if idx > uint64(^uint32(0)) {
			return img, r.corrupt("page index %d", idx)
		}
		pr.MemIndex = uint32(idx)
		page, err := r.u64()
		if err != nil {
			return img, err
		}
		if page >= uint64(npages) {
			return img, r.corrupt("page reference %d of %d", page, npages)
		}
		pr.Page = int(page)
	}
	return img, nil
}

func decodeMapper(r *reader) (*core.MapperSnapshot, error) {
	m := &core.MapperSnapshot{}
	algo, err := r.u64()
	if err != nil {
		return nil, err
	}
	m.Algorithm = core.Algorithm(algo)
	k, err := r.count()
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, r.corrupt("mapper with k=%d", k)
	}
	m.K = k
	readBucket := func() ([]uint64, error) {
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		ids := make([]uint64, n)
		for i := range ids {
			if ids[i], err = r.u64(); err != nil {
				return nil, err
			}
		}
		return ids, nil
	}
	switch m.Algorithm {
	case core.COBAlgorithm:
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		m.Scenarios = make([][]uint64, 0, n)
		for i := 0; i < n; i++ {
			row := make([]uint64, k)
			for node := range row {
				if row[node], err = r.u64(); err != nil {
					return nil, err
				}
			}
			m.Scenarios = append(m.Scenarios, row)
		}
	case core.COWAlgorithm:
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		m.DStates = make([][][]uint64, 0, n)
		for i := 0; i < n; i++ {
			ds := make([][]uint64, k)
			for node := range ds {
				if ds[node], err = readBucket(); err != nil {
					return nil, err
				}
			}
			m.DStates = append(m.DStates, ds)
		}
	case core.SDSAlgorithm:
		if m.NextDSID, err = r.unsignedInt(); err != nil {
			return nil, err
		}
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		m.VDStates = make([]core.VDStateImage, 0, n)
		for i := 0; i < n; i++ {
			d := core.VDStateImage{ByNode: make([][]uint64, k)}
			if d.ID, err = r.unsignedInt(); err != nil {
				return nil, err
			}
			for node := range d.ByNode {
				if d.ByNode[node], err = readBucket(); err != nil {
					return nil, err
				}
			}
			m.VDStates = append(m.VDStates, d)
		}
		nsup, err := r.count()
		if err != nil {
			return nil, err
		}
		m.Supers = make([]core.SuperImage, 0, nsup)
		for i := 0; i < nsup; i++ {
			var s core.SuperImage
			if s.StateID, err = r.u64(); err != nil {
				return nil, err
			}
			nds, err := r.count()
			if err != nil {
				return nil, err
			}
			s.DStateIDs = make([]int, nds)
			for j := range s.DStateIDs {
				if s.DStateIDs[j], err = r.unsignedInt(); err != nil {
					return nil, err
				}
			}
			m.Supers = append(m.Supers, s)
		}
	default:
		return nil, r.corrupt("mapper algorithm %d", m.Algorithm)
	}
	return m, nil
}

func fnv64a(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range data {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

package snap_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/metrics"
	"sde/internal/snap"
	"sde/internal/vm"
)

// fullSnapshot is liveSnapshot's late frontier with every field the run
// leaves zero given a value: an error and a trace on a state, a call frame,
// a pending event with an argument, a sample, a violation with a model,
// the peaks, the prior wall time and every counter.
func fullSnapshot(t *testing.T, algo core.Algorithm) (*snap.Snapshot, *expr.Builder) {
	t.Helper()
	sp, b := liveSnapshot(t, algo, 60)
	x := b.Var("fixture", 8)
	img := &sp.States[len(sp.States)-1]
	img.Status = vm.Status(1)
	img.HasErr, img.ErrMsg = true, "fixture error"
	img.Frames = append(img.Frames, vm.FrameImage{Fn: 1, PC: 2})
	img.Events = append(img.Events, vm.EventImage{Time: sp.Clock + 9, Kind: vm.EventKind(1), Fn: 3, Arg: x, Src: 4, Data: []*expr.Expr{x}})
	img.Trace = append(img.Trace, vm.TraceEntry{Time: 5, Msg: "fixture trace", Val: x})
	img.SendSeq, img.RecvSeq, img.SymSeq = 6, 7, 8
	var cond *expr.Expr
	for i := range sp.States {
		if pc := sp.States[i].PathCond; len(pc) > 0 {
			cond = pc[len(pc)-1]
		}
	}
	sp.PeakStates, sp.PeakMem, sp.PriorWall = 11, 12, 13*time.Millisecond
	sp.Samples = append(sp.Samples, metrics.Sample{Wall: 1, VirtualTime: 2, States: 3, Groups: 4, MemBytes: 5, Instructions: 6, SolverQueries: 7})
	sp.Violations = append(sp.Violations, &vm.Violation{Node: 1, Time: 2, Msg: "fixture violation",
		Model: expr.Env{"fixture": 3, "other": 4}, StateID: img.ID, Cond: cond})
	n := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch {
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case v.CanInt():
			n++
			v.SetInt(n)
		default:
			n++
			v.SetUint(uint64(n))
		}
	}
	fill(reflect.ValueOf(&sp.Stats).Elem())
	return sp, b
}

var exprType = reflect.TypeOf((*expr.Expr)(nil))

// fieldPaths walks v and marks in into, by field path, every field that
// holds a value — non-zero, non-nil, non-empty — somewhere in v.
// Expressions are leaves; the elements of a list share one path.
func fieldPaths(v reflect.Value, path string, into map[string]bool) {
	if v.Type() == exprType {
		into[path] = into[path] || !v.IsNil()
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fieldPaths(v.Field(i), path+"."+v.Type().Field(i).Name, into)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			fieldPaths(v.Elem(), path, into)
		}
	case reflect.Slice, reflect.Array:
		into[path] = into[path] || v.Len() > 0
		for i := 0; i < v.Len(); i++ {
			fieldPaths(v.Index(i), path+"[]", into)
		}
	default:
		into[path] = into[path] || !v.IsZero()
	}
}

// typePaths lists every field path fieldPaths can record for type t.
func typePaths(t reflect.Type, path string, into map[string]bool) {
	if t == exprType {
		into[path] = true
		return
	}
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			typePaths(t.Field(i).Type, path+"."+t.Field(i).Name, into)
		}
	case reflect.Pointer:
		typePaths(t.Elem(), path, into)
	case reflect.Slice, reflect.Array:
		into[path] = true
		typePaths(t.Elem(), path+"[]", into)
	default:
		into[path] = true
	}
}

// sameFields compares want and got field by field and reports each path
// where they differ. Expressions compare by printed form, page words by the
// printed form of the node they name in their own builder, and an empty
// list equals a nil one.
func sameFields(want, got reflect.Value, path string, wb, gb *expr.Builder, diffs *[]string) {
	differ := func(w, g any) { *diffs = append(*diffs, fmt.Sprintf("%s: got %v, want %v", path, g, w)) }
	if want.Type() == exprType {
		if w, g := want.Interface().(*expr.Expr).String(), got.Interface().(*expr.Expr).String(); w != g {
			differ(w, g)
		}
		return
	}
	if path == ".Pages[][]" {
		if w, g := wb.Node(uint32(want.Uint())).String(), gb.Node(uint32(got.Uint())).String(); w != g {
			differ(w, g)
		}
		return
	}
	switch want.Kind() {
	case reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			sameFields(want.Field(i), got.Field(i), path+"."+want.Type().Field(i).Name, wb, gb, diffs)
		}
	case reflect.Pointer:
		if want.IsNil() || got.IsNil() {
			if want.IsNil() != got.IsNil() {
				differ(want, got)
			}
			return
		}
		sameFields(want.Elem(), got.Elem(), path, wb, gb, diffs)
	case reflect.Slice, reflect.Array:
		if want.Len() != got.Len() {
			differ(fmt.Sprintf("%d elements", want.Len()), fmt.Sprintf("%d elements", got.Len()))
			return
		}
		for i := 0; i < want.Len(); i++ {
			sameFields(want.Index(i), got.Index(i), path+"[]", wb, gb, diffs)
		}
	case reflect.Map:
		if !reflect.DeepEqual(want.Interface(), got.Interface()) {
			differ(want, got)
		}
	default:
		if !want.Equal(got) {
			differ(want, got)
		}
	}
}

// TestSnapshotCarriesEveryField is the guard for the whole format, as
// TestStatsSectionCarriesEveryCounter is for the counters: a fixture
// snapshot of each algorithm gives every field of the Snapshot type a
// value (the mapper's per-algorithm sections across the three), and
// decoding its encoding gives every field back. A field dropped on both
// sides — which TestRoundTripByteStable cannot see, the bytes agreeing
// with themselves — fails here, whether it is missing from the fixture or
// from the round trip.
func TestSnapshotCarriesEveryField(t *testing.T) {
	held := make(map[string]bool)
	for _, algo := range allAlgorithms {
		sp, b := fullSnapshot(t, algo)
		fieldPaths(reflect.ValueOf(sp), "", held)
		data, err := sp.Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		b2 := expr.NewBuilder()
		got, err := snap.Decode(data, b2)
		if err != nil {
			t.Fatal(err)
		}
		var diffs []string
		sameFields(reflect.ValueOf(sp).Elem(), reflect.ValueOf(got).Elem(), "", b, b2, &diffs)
		for i, d := range diffs {
			if i == 10 {
				t.Errorf("%v: %d more differences", algo, len(diffs)-i)
				break
			}
			t.Errorf("%v: %s", algo, d)
		}
	}
	all := make(map[string]bool)
	typePaths(reflect.TypeOf(snap.Snapshot{}), "", all)
	for path := range all {
		if !held[path] {
			t.Errorf("no fixture gives %s a value", path)
		}
	}
	if len(all) < 60 {
		t.Fatalf("walked %d fields; the Snapshot type has more than that", len(all))
	}
}

package snap_test

// Fuzz target for the snapshot decoder: the decoder treats its input as
// untrusted bytes and must never panic — every rejection wraps
// snap.ErrCorrupt, and everything it accepts must re-encode byte-
// identically (the resume path re-encodes accepted snapshots at the next
// checkpoint).

import (
	"errors"
	"reflect"
	"testing"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/metrics"
	"sde/internal/snap"
)

// everyCounter returns run stats with every counter set, each to a
// distinct value.
func everyCounter() metrics.RunStats {
	var st metrics.RunStats
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
			v.SetInt(n * 1000003)
		default:
			n++
			v.SetUint(uint64(n * 1000003))
		}
	}
	fill(reflect.ValueOf(&st).Elem())
	return st
}

func FuzzDecode(f *testing.F) {
	// Seed with real snapshots from all three algorithms so the fuzzer
	// starts past the checksum and explores the structural decoders, plus
	// hand-mutated variants that defeat the checksum gate.
	for _, algo := range allAlgorithms {
		sp, b := liveSnapshot(f, algo, 30)
		data, err := sp.Encode(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		mut := append([]byte(nil), data...)
		mut[len(mut)/3] ^= 0xff
		f.Add(mut)
	}
	// A stats section with every counter named.
	sp, b := liveSnapshot(f, core.SDSAlgorithm, 30)
	sp.Stats = everyCounter()
	data, err := sp.Encode(b)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// Checksum-valid snapshots whose id counters lie (2^40).
	_, _, hostile := hostileSnapshots(f)
	for _, data := range hostile {
		f.Add(data)
	}
	f.Add(hostilePeak(f)) // PeakStates = 2^63
	f.Add([]byte{})
	f.Add([]byte("SDEsnp\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		b := expr.NewBuilder()
		sp, err := snap.Decode(data, b)
		if err != nil {
			if !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("Decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// Accepted input: it must survive a re-encode/re-decode cycle.
		// (Byte-identity is only guaranteed for Encode's own output —
		// TestRoundTripByteStable covers that — since Decode tolerates
		// non-minimal varints that Encode would canonicalise.)
		out, err := sp.Encode(b)
		if err != nil {
			t.Fatalf("accepted snapshot fails to re-encode: %v", err)
		}
		sp2, err := snap.Decode(out, expr.NewBuilder())
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		if sp2.Events != sp.Events || len(sp2.States) != len(sp.States) {
			t.Fatalf("re-encode changed the snapshot: events %d→%d, states %d→%d",
				sp.Events, sp2.Events, len(sp.States), len(sp2.States))
		}
	})
}

package snap_test

// Format-version tests. There is one version: the reader accepts exactly
// the version this build writes, and a blob claiming any other — older or
// from the future — is rejected as corrupt with an error naming both, not
// a panic and not a silent misparse.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/snap"
)

// reversion rewrites the format-version byte of an encoded snapshot and
// repairs the trailing CRC-32C, simulating a blob whose declared version
// disagrees with its actual contents.
func reversion(t *testing.T, data []byte, ver byte) []byte {
	t.Helper()
	const magicLen = 7 // "SDEsnp\x00"
	out := append([]byte(nil), data...)
	out[magicLen] = ver
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// TestVersionGate: the reader's version check, as a table over
// version-byte rewrites of a real blob.
func TestVersionGate(t *testing.T) {
	sp, b := liveSnapshot(t, core.SDSAlgorithm, 60)
	cur, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		data   []byte
		reject bool
	}{
		{"current-version", cur, false},
		{"previous-version", reversion(t, cur, snap.WireVersion-1), true},
		{"version-5", reversion(t, cur, 5), true},   // the last format without a stats section: counters in the header and the samples
		{"version-6", reversion(t, cur, 6), true},   // its stats section carried three solver-session counters more
		{"version-7", reversion(t, cur, 7), true},   // same snapshot bytes as 8, but its worker protocol still had NoWork
		{"version-8", reversion(t, cur, 8), true},   // its stats section and its tail carried state merging
		{"version-9", reversion(t, cur, 9), true},   // its stats section carried symmetry reduction
		{"version-10", reversion(t, cur, 10), true}, // its stats section carried two query-optimizer counters more
		{"version-11", reversion(t, cur, 11), true}, // its stats section was positional varints, its checksum FNV-1a
		{"future-version", reversion(t, cur, snap.WireVersion+1), true},
		{"version-zero", reversion(t, cur, 0), true},
		{"version-255", reversion(t, cur, 255), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := snap.Decode(tc.data, expr.NewBuilder())
			if !tc.reject {
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Decode accepted a blob of another version")
			}
			if !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			if want := fmt.Sprintf("unsupported version %d (this reader speaks %d)", tc.data[7], snap.WireVersion); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name both versions (%s)", err, want)
			}
		})
	}
}

package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xA5}, 10_000)}
	var buf bytes.Buffer
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatalf("WriteFrame(%d): %v", i, err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame(%d): %v", i, err)
		}
		if typ != byte(i+1) {
			t.Errorf("frame %d: type = %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("ReadFrame at end = %v, want io.EOF", err)
	}
}

// frameBytes builds one well-formed frame and lets the test damage it.
func frameBytes(t *testing.T, typ byte, payload []byte) []byte {
	t.Helper()
	return AppendFrame(nil, typ, payload)
}

// restamp rewrites a frame's trailing CRC-32C to match what precedes it,
// so a damaged header reaches the reader with a valid checksum.
func restamp(frame []byte) {
	body := frame[:len(frame)-sumLen]
	binary.LittleEndian.PutUint32(frame[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// TestFrameVersionNegotiation: this reader speaks WireVersion; a frame
// stamped with any other version must be rejected with an error that wraps
// ErrCorrupt and names the offending version — the mixed-fleet diagnosis
// depends on that number surfacing. A later version's layout is unknown to
// it, frames before version 12 end in an 8-byte FNV-1a sum where this one
// reads a 4-byte CRC-32C, and version 12 snapshots lay the mapper out
// another way.
func TestFrameVersionNegotiation(t *testing.T) {
	versions := []byte{WireVersion, 255, 0, 8, 9, 10, 11, 12}
	for v := byte(WireVersion + 1); v <= WireVersion+7; v++ {
		versions = append(versions, v)
	}
	for _, ver := range versions {
		ver := ver
		t.Run(fmt.Sprintf("v%d", ver), func(t *testing.T) {
			frame := frameBytes(t, 9, []byte("payload"))
			frame[len(frameMagic)] = ver
			// The version check happens before the checksum is read, so no
			// re-stamping of the trailer is needed — but fix it up anyway to
			// prove rejection is about the version, not collateral damage.
			restamp(frame)

			_, _, err := ReadFrame(bytes.NewReader(frame))
			if ver == WireVersion {
				if err != nil {
					t.Errorf("version-%d frame rejected: %v", ver, err)
				}
				return
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("version %d: err = %v, want ErrCorrupt", ver, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("version %d", ver)) {
				t.Errorf("error %q does not name the offending version %d", err, ver)
			}
		})
	}
}

// TestFrameChecksumIsCRC32C: the trailer is the CRC-32C of the header and
// the payload, four bytes little-endian — the layout DESIGN §7 documents.
func TestFrameChecksumIsCRC32C(t *testing.T) {
	frame := frameBytes(t, 5, []byte("payload"))
	if len(frame) != frameHeaderLen+len("payload")+4 {
		t.Fatalf("frame of %d bytes, want header, payload and a 4-byte sum", len(frame))
	}
	body := frame[:len(frame)-4]
	if got, want := binary.LittleEndian.Uint32(frame[len(body):]), crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)); got != want {
		t.Errorf("trailer %#x, want CRC-32C %#x", got, want)
	}
}

func TestFrameCorruption(t *testing.T) {
	good := frameBytes(t, 3, []byte("the payload"))
	tests := []struct {
		name string
		data func() []byte
	}{
		{"empty input is clean EOF, handled separately", nil},
		{"truncated magic", func() []byte { return good[:3] }},
		{"truncated header", func() []byte { return good[:frameHeaderLen-1] }},
		{"truncated payload", func() []byte { return good[:frameHeaderLen+4] }},
		{"truncated checksum", func() []byte { return good[:len(good)-2] }},
		{"garbage magic", func() []byte {
			f := append([]byte(nil), good...)
			f[0] = 'X'
			return f
		}},
		{"garbage everywhere", func() []byte {
			return bytes.Repeat([]byte{0xDE, 0xAD}, 32)
		}},
		{"oversized length", func() []byte {
			f := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(f[len(frameMagic)+2:], MaxFramePayload+1)
			return f
		}},
		{"length beyond input", func() []byte {
			f := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(f[len(frameMagic)+2:], uint32(len(good)+512))
			return f
		}},
		{"flipped payload bit", func() []byte {
			f := append([]byte(nil), good...)
			f[frameHeaderLen] ^= 0x40
			return f
		}},
		{"flipped checksum bit", func() []byte {
			f := append([]byte(nil), good...)
			f[len(f)-1] ^= 0x01
			return f
		}},
		{"flipped header bit", func() []byte {
			f := append([]byte(nil), good...)
			f[len(frameMagic)+1] ^= 0x10
			return f
		}},
		{"flipped length bit", func() []byte {
			f := append([]byte(nil), good...)
			f[len(frameMagic)+2] ^= 0x01
			return f
		}},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.data == nil {
				_, _, err := ReadFrame(bytes.NewReader(nil))
				if err != io.EOF {
					t.Fatalf("empty input: err = %v, want io.EOF", err)
				}
				return
			}
			_, _, err := ReadFrame(bytes.NewReader(tc.data()))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestWriteFrameRejectsOversizedPayload: the writer refuses to emit a
// frame its own reader would reject.
func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	big := make([]byte, MaxFramePayload+1)
	if err := WriteFrame(io.Discard, 1, big); err == nil {
		t.Fatal("WriteFrame accepted an oversized payload")
	}
}

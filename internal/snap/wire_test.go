package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// TestFrameVersionNegotiation: this reader speaks WireVersion; any frame
// stamped with a later version must be rejected with an error that wraps
// ErrCorrupt and names the offending version — the mixed-fleet diagnosis
// depends on that number surfacing.
func TestFrameVersionNegotiation(t *testing.T) {
	for _, future := range []byte{WireVersion + 1, WireVersion + 7, 255} {
		future := future
		t.Run(fmt.Sprintf("v%d", future), func(t *testing.T) {
			frame := frameBytes(t, 9, []byte("payload"))
			frame[len(frameMagic)] = future
			// The version check happens before the checksum is read, so no
			// re-stamping of the trailer is needed — but fix it up anyway to
			// prove rejection is about the version, not collateral damage.
			body := frame[:len(frame)-frameSumLen]
			binary.LittleEndian.PutUint64(frame[len(frame)-frameSumLen:], fnv64a(body))

			_, _, err := ReadFrame(bytes.NewReader(frame))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("future version %d: err = %v, want ErrCorrupt", future, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("%d", future)) {
				t.Errorf("error %q does not name the offending version %d", err, future)
			}
		})
	}
	// Frames at or below our version pass the version gate: the frame
	// layout has never changed, and a peer of another version — wire 8, the
	// last with state merging in its snapshots, included — must be able to
	// read the coordinator's refusal of its Hello.
	for _, ver := range []byte{WireVersion, 8} {
		frame := frameBytes(t, 9, []byte("payload"))
		frame[len(frameMagic)] = ver
		binary.LittleEndian.PutUint64(frame[len(frame)-frameSumLen:], fnv64a(frame[:len(frame)-frameSumLen]))
		if _, _, err := ReadFrame(bytes.NewReader(frame)); err != nil {
			t.Errorf("version-%d frame rejected: %v", ver, err)
		}
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

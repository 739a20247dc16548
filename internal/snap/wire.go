// Wire framing: the checkpoint format promoted to a transport. The
// coordinator/worker protocol of internal/dist moves snapshots and small
// control messages as length-prefixed frames, each stamped with the snap
// format version — the same version byte the on-disk checkpoint carries —
// so version negotiation and rejection of future-format peers reuse the
// one place the format is versioned.
//
// A frame on the wire:
//
//	magic "SDEfrm"  (6 bytes)
//	version         (1 byte, = the snap format version of the sender)
//	type            (1 byte, application-defined)
//	payload length  (4 bytes, little-endian)
//	payload         (length bytes)
//	checksum        (4 bytes, little-endian CRC-32C of everything above)
//
// Like the checkpoint decoder, the frame reader treats its input as
// untrusted: truncation, oversized lengths, garbage magic, checksum
// mismatches, and other versions all return errors wrapping ErrCorrupt,
// never a panic. A reader accepts frames of its own version only: it
// cannot know how to parse a later one, and an earlier one (before 12)
// ends in an 8-byte FNV-1a sum, so it is refused by its version before its
// checksum is read and a mixed fleet's error names the version.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// WireVersion is the frame format version this build speaks: the snap
// checkpoint version, because snapshot payloads are the protocol's bulk
// cargo and their format is what actually changes between releases.
const WireVersion = version

// MaxFramePayload bounds a single frame's payload (64 MiB). Snapshots of
// runs worth distributing stay far below this; anything larger is treated
// as corruption rather than a reason to allocate unboundedly.
const MaxFramePayload = 64 << 20

var frameMagic = []byte("SDEfrm")

// frameHeaderLen is magic + version + type + 4-byte length.
const frameHeaderLen = len("SDEfrm") + 1 + 1 + 4

// AppendFrame appends one version-WireVersion frame to dst and returns
// the extended slice.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, frameMagic...)
	dst = append(dst, WireVersion, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("snap: frame payload of %d bytes exceeds the %d-byte cap",
			len(payload), MaxFramePayload)
	}
	buf := AppendFrame(make([]byte, 0, frameHeaderLen+len(payload)+sumLen), typ, payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from r. Protocol-level damage — truncated
// input, bad magic, an oversized length, a checksum mismatch — wraps
// ErrCorrupt. A frame of another format version also wraps ErrCorrupt
// and names the offending version, so a mixed-version fleet fails with a
// diagnosable error instead of a parse explosion. Clean EOF before any
// byte of a frame is returned as io.EOF (the peer hung up between
// frames).
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	header := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(r, header[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: truncated frame header: %v", ErrCorrupt, err)
	}
	if _, err := io.ReadFull(r, header[1:]); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated frame header: %v", ErrCorrupt, err)
	}
	for i, c := range frameMagic {
		if header[i] != c {
			return 0, nil, fmt.Errorf("%w: bad frame magic %q", ErrCorrupt, header[:len(frameMagic)])
		}
	}
	ver := header[len(frameMagic)]
	if ver != WireVersion {
		return 0, nil, fmt.Errorf("%w: frame has wire version %d (this reader speaks %d)",
			ErrCorrupt, ver, WireVersion)
	}
	typ = header[len(frameMagic)+1]
	n := binary.LittleEndian.Uint32(header[len(frameMagic)+2:])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame payload length %d exceeds the %d-byte cap",
			ErrCorrupt, n, MaxFramePayload)
	}
	body := make([]byte, int(n)+sumLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated frame payload: %v", ErrCorrupt, err)
	}
	sum := crc32.Update(crc32.Checksum(header, castagnoli), castagnoli, body[:n])
	if sum != binary.LittleEndian.Uint32(body[n:]) {
		return 0, nil, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	return typ, body[:n:n], nil
}

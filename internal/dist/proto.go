// Package dist implements the multi-process exploration service: a
// coordinator that owns the shard queue of submitted jobs and a fleet of
// workers that lease (depth, bits) sub-spaces, execute them with the same
// machinery the in-process shard scheduler uses, and stream back each
// leaf's final snapshot.
//
// The wire protocol rides the length-prefixed, versioned, checksummed
// frames of internal/snap (one frame per message, the frame type byte
// naming the message kind), so transport corruption and version skew are
// detected by the same code that guards on-disk snapshots. Messages are
// JSON payloads — small control messages — except the three that move a
// snapshot (Lease, Result, Suspend), whose payload is a JSON header
// followed by the raw snapshot bytes.
//
// The protocol is deliberately coordinator-passive: workers pull. A
// worker sends Ready when idle and the answer is a Lease — at once when a
// task is queued, otherwise as soon as one is: the coordinator holds the
// request rather than refusing it, so an idle worker waits on its
// connection and polls nothing. While executing it streams Heartbeat
// messages (which double as progress reports) and reads HeartbeatAck
// replies carrying the cancellation flag. A lease ends in one Result,
// Suspend or Error; the sub-space it covers is fixed by the job's
// partition when it is granted. A worker that vanishes mid-lease — crash,
// SIGKILL, network partition — is detected by lease TTL expiry or
// connection teardown, and its item is simply requeued: shard execution
// is deterministic and resumable, so a re-issued lease produces the exact
// same leaf.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"sde"
	"sde/internal/snap"
)

// Message kinds, carried in the snap frame's type byte.
const (
	// MsgHello opens a worker connection: name + wire version.
	MsgHello byte = iota + 1
	// MsgWelcome is the coordinator's handshake reply.
	MsgWelcome
	// MsgReady asks for work; the reply is MsgLease, when there is work.
	MsgReady
	// MsgLease grants one work item: the Lease JSON plus, for a
	// continuation item, the suspended parent frontier the worker
	// slice-resumes from (empty otherwise).
	MsgLease
	// MsgHeartbeat is the worker's periodic liveness + progress report
	// while executing a lease.
	MsgHeartbeat
	// MsgHeartbeatAck answers a heartbeat with the cancel flag.
	MsgHeartbeatAck
	// msgReserved7 is the type byte of the deleted straggler-split
	// message, reserved so the kinds after it keep their bytes and the
	// wire keeps its version. The coordinator treats it like any unknown
	// kind: it closes the connection and requeues the sender's leases.
	msgReserved7
	// MsgResult delivers a finished (or stopped) lease: JSON header plus
	// the shard's final snapshot bytes.
	MsgResult
	// MsgError reports a failed lease execution.
	MsgError
	// MsgSuspend delivers a lease that hit its depth horizon: JSON
	// header plus the surviving frontier — the continuation payload the
	// coordinator fans out as new work items.
	MsgSuspend
)

// Hello is the worker's opening message.
type Hello struct {
	Name string `json:"name"`
	Wire int    `json:"wire"`
}

// Welcome is the coordinator's handshake reply.
type Welcome struct {
	Name string `json:"name"`
	Wire int    `json:"wire"`
}

// Lease grants one work item. The spec travels with every lease: worker
// and coordinator each materialise the scenario — layers included — from
// it, which is what keeps leases self-contained, workers stateless across
// jobs, and a job's leaves independent of which worker ran them.
type Lease struct {
	ID   uint64           `json:"id"`
	Job  string           `json:"job"`
	Spec sde.ScenarioSpec `json:"spec"`
	Item sde.ShardItem    `json:"item"`
	// EventTarget is the job's next depth horizon for this item as an
	// absolute cumulative processed-event count (0 = run to completion).
	// Absolute, so a crashed-and-resumed lease suspends on exactly the
	// same event boundary.
	EventTarget uint64 `json:"event_target,omitempty"`
}

// Heartbeat is the worker's periodic report while holding a lease.
type Heartbeat struct {
	Lease         uint64 `json:"lease"`
	States        int    `json:"states"`
	ElapsedMillis int64  `json:"elapsed_millis"`
}

// HeartbeatAck answers a heartbeat.
type HeartbeatAck struct {
	Lease uint64 `json:"lease"`
	// Cancel tells the worker to stop the lease: its job was cancelled
	// or its lease already expired and was re-issued elsewhere.
	Cancel bool `json:"cancel,omitempty"`
}

// ResultHeader precedes the snapshot bytes in a MsgResult payload.
type ResultHeader struct {
	Lease uint64 `json:"lease"`
	// Stopped: the lease was cut short (cancellation); no snapshot
	// follows and the item is not complete.
	Stopped bool `json:"stopped,omitempty"`
}

// SuspendHeader precedes the frontier bytes in a MsgSuspend payload.
type SuspendHeader struct {
	Lease uint64 `json:"lease"`
	// Units is how many independently resumable slices the suspended
	// frontier supports; the coordinator clamps the job's fan-out to it.
	Units int `json:"units"`
	// Events is the cumulative processed-event count at suspension; the
	// continuation generation's EventTarget is Events + horizon.
	Events uint64 `json:"events"`
}

// ErrorMsg reports a failed lease execution (the item is requeued).
type ErrorMsg struct {
	Lease uint64 `json:"lease"`
	Msg   string `json:"msg"`
}

// writeMsg sends one JSON message as a single frame.
func writeMsg(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dist: encoding message %d: %w", typ, err)
	}
	return snap.WriteFrame(w, typ, payload)
}

// writeHdrBlob sends one frame carrying a JSON header followed by raw
// bytes: uvarint header length, JSON header, blob. MsgLease, MsgResult
// and MsgSuspend all use this shape.
func writeHdrBlob(w io.Writer, typ byte, hdr any, blob []byte) error {
	hj, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("dist: encoding message %d header: %w", typ, err)
	}
	payload := make([]byte, 0, binary.MaxVarintLen64+len(hj)+len(blob))
	payload = binary.AppendUvarint(payload, uint64(len(hj)))
	payload = append(payload, hj...)
	payload = append(payload, blob...)
	return snap.WriteFrame(w, typ, payload)
}

// parseHdrBlob splits a header+blob payload back into its parts.
func parseHdrBlob[T any](payload []byte) (T, []byte, error) {
	var hdr T
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64(len(payload)-sz) {
		return hdr, nil, fmt.Errorf("dist: %w: header length", snap.ErrCorrupt)
	}
	if err := json.Unmarshal(payload[sz:sz+int(n)], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("dist: decoding header: %w", err)
	}
	return hdr, payload[sz+int(n):], nil
}

// decode unmarshals a JSON message payload.
func decode[T any](payload []byte) (T, error) {
	var v T
	if err := json.Unmarshal(payload, &v); err != nil {
		return v, fmt.Errorf("dist: decoding message: %w", err)
	}
	return v, nil
}

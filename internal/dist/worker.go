package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"sde"
	"sde/internal/snap"
)

// ErrCrashed reports that the worker's injected crash hook fired: the
// connection was dropped abruptly mid-lease, exactly like a SIGKILL.
var ErrCrashed = errors.New("dist: worker crashed (injected)")

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator (and in per-worker
	// metrics). Required.
	Name string
	// WorkDir holds per-lease checkpoint directories
	// (WorkDir/<job>/<item dir>), each created by its lease's first periodic
	// checkpoint. Required. A worker restarted with the same WorkDir
	// resumes re-issued leases from its own checkpoints.
	WorkDir string
	// HeartbeatEvery is the progress/liveness reporting interval while
	// executing a lease (default 500ms). It must be well under the
	// coordinator's lease TTL.
	HeartbeatEvery time.Duration
	// DialTimeout bounds the initial connection (default 5s).
	DialTimeout time.Duration
	// CheckpointEvery selects the per-lease periodic checkpoint schedule
	// (sde.LeaseOptions.CheckpointEvery): n > 0 is exact, every n processed
	// events; 0 is cost-paced, so a worker spends at most 1/8 of a lease on
	// checkpoints nobody may ever read, a lease under 16 ms writes none,
	// and a crash costs the re-issued lease at most 8 checkpoint costs
	// plus 256 events of rework. How a lease executes beyond that — its
	// layers — is the job's to say, never the worker's.
	CheckpointEvery int
	// CrashAfterCheckpoints, when > 0, injects a crash: once the active
	// lease's checkpoint file has been observed that many times, the
	// worker abruptly closes its connection and RunWorker returns
	// ErrCrashed. The service end-to-end tests use this to kill a worker
	// mid-lease at a moment when recovery provably has a checkpoint. Only
	// periodic checkpoints reach the file, so a lease too short for its
	// schedule to cut one never trips the hook.
	CrashAfterCheckpoints int
	// CrashAfterEvents, when > 0, injects the same crash once a lease has
	// processed that many events. Below the checkpoint grid (256 events)
	// and without CheckpointEvery, that is a worker dying before its
	// lease's first paced checkpoint.
	CrashAfterEvents int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

type inMsg struct {
	typ     byte
	payload []byte
}

// RunWorker connects to a coordinator and executes leases until the
// context is cancelled (returns nil) or the connection fails (returns the
// error). Each lease runs through sde.RunShardLease with a progress hook
// that streams heartbeats and honours cancellation and the injected crash.
func RunWorker(ctx context.Context, addr string, opts WorkerOptions) error {
	if opts.Name == "" {
		return fmt.Errorf("dist: worker needs a name")
	}
	if opts.WorkDir == "" {
		return fmt.Errorf("dist: worker needs a work directory")
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 500 * time.Millisecond
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("dist: dialing coordinator: %w", err)
	}
	defer conn.Close()
	if err := writeMsg(conn, MsgHello, Hello{Name: opts.Name, Wire: snap.WireVersion}); err != nil {
		return err
	}
	typ, payload, err := snap.ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("dist: handshake: %w", err)
	}
	if typ == MsgError {
		if em, derr := decode[ErrorMsg](payload); derr == nil {
			return fmt.Errorf("dist: coordinator rejected us: %s", em.Msg)
		}
	}
	if typ != MsgWelcome {
		return fmt.Errorf("dist: handshake: unexpected message type %d", typ)
	}
	welcome, err := decode[Welcome](payload)
	if err != nil {
		return err
	}
	logf("connected to %s (wire v%d)", welcome.Name, welcome.Wire)

	// The reader splits the inbound stream: heartbeat acks flow to the
	// progress hook through a buffered channel; everything else is the
	// main loop's request/response traffic.
	msgs := make(chan inMsg)
	acks := make(chan HeartbeatAck, 16)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer close(msgs)
		for {
			typ, payload, err := snap.ReadFrame(conn)
			if err != nil {
				return
			}
			if typ == MsgHeartbeatAck {
				if ack, err := decode[HeartbeatAck](payload); err == nil {
					select {
					case acks <- ack:
					default: // the hook is behind; drop the oldest signal
					}
				}
				continue
			}
			select {
			case msgs <- inMsg{typ, payload}:
			case <-ctx.Done():
				return
			}
		}
	}()
	// Unblock the reader when the context dies mid-wait.
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-readerDone:
		}
	}()

	// One Ready per lease: the coordinator holds it until it has a lease to
	// answer with, so an idle worker waits here on the connection, not on a
	// timer.
	crashed := false
	for {
		if err := writeMsg(conn, MsgReady, struct{}{}); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		var m inMsg
		var ok bool
		select {
		case <-ctx.Done():
			return nil
		case m, ok = <-msgs:
			if !ok {
				if ctx.Err() != nil {
					return nil
				}
				return fmt.Errorf("dist: coordinator connection lost")
			}
		}
		switch m.typ {
		case MsgLease:
			lease, parent, err := parseHdrBlob[Lease](m.payload)
			if err != nil {
				return err
			}
			if err := executeLease(ctx, conn, acks, lease, parent, opts, logf, &crashed); err != nil {
				if ctx.Err() != nil && !crashed {
					return nil
				}
				return err
			}
		case MsgError:
			em, _ := decode[ErrorMsg](m.payload)
			return fmt.Errorf("dist: coordinator error: %s", em.Msg)
		default:
			return fmt.Errorf("dist: unexpected message type %d", m.typ)
		}
	}
}

// executeLease runs one lease and reports its outcome (result, suspend or
// error) back to the coordinator. parent is the suspended
// ancestor frontier shipped with a continuation lease (empty otherwise).
func executeLease(ctx context.Context, conn net.Conn, acks <-chan HeartbeatAck,
	lease Lease, parent []byte, opts WorkerOptions, logf func(string, ...any), crashed *bool) error {
	scenario, err := lease.Spec.Scenario()
	if err != nil {
		return writeMsg(conn, MsgError, ErrorMsg{Lease: lease.ID, Msg: err.Error()})
	}
	dir := filepath.Join(opts.WorkDir, lease.Job, lease.Item.Dir())
	ckptPath := filepath.Join(dir, snap.CheckpointFile)
	logf("lease %d: shard %s of %s -> %s", lease.ID, lease.Item.Label(), lease.Job, dir)

	var (
		ckptSeen  int
		events    int // progress polls, one per processed event
		cancelled bool
		lastBeat  = time.Now()
	)
	progress := func(states int, elapsed time.Duration) bool {
		if opts.CrashAfterCheckpoints > 0 {
			if _, err := os.Stat(ckptPath); err == nil {
				ckptSeen++
			}
		}
		events++
		if (opts.CrashAfterCheckpoints > 0 && ckptSeen >= opts.CrashAfterCheckpoints) ||
			(opts.CrashAfterEvents > 0 && events > opts.CrashAfterEvents) {
			*crashed = true
			conn.Close() // abrupt: no goodbye frame, like a SIGKILL
			return true
		}
		if ctx.Err() != nil {
			cancelled = true
			return true
		}
		if time.Since(lastBeat) >= opts.HeartbeatEvery {
			lastBeat = time.Now()
			hb := Heartbeat{Lease: lease.ID, States: states, ElapsedMillis: elapsed.Milliseconds()}
			if err := writeMsg(conn, MsgHeartbeat, hb); err != nil {
				cancelled = true // dead connection: further work is wasted
				return true
			}
		}
	drain:
		for {
			select {
			case ack := <-acks:
				if ack.Lease == lease.ID && ack.Cancel {
					cancelled = true
				}
			default:
				break drain
			}
		}
		return cancelled
	}

	out, err := sde.RunShardLease(scenario, lease.Item, sde.LeaseOptions{
		CheckpointDir:   dir,
		CheckpointEvery: opts.CheckpointEvery,
		Progress:        progress,
		EventTarget:     lease.EventTarget,
		Continuation:    parent,
	})
	switch {
	case *crashed:
		return ErrCrashed
	case err != nil:
		logf("lease %d: failed: %v", lease.ID, err)
		return writeMsg(conn, MsgError, ErrorMsg{Lease: lease.ID, Msg: err.Error()})
	case out.Stopped:
		logf("lease %d: stopped", lease.ID)
		return writeHdrBlob(conn, MsgResult, ResultHeader{Lease: lease.ID, Stopped: true}, nil)
	case out.Suspended:
		logf("lease %d: suspended at %d events (%d units, %d frontier bytes)",
			lease.ID, out.Events, out.Units, len(out.Snapshot))
		return writeHdrBlob(conn, MsgSuspend, SuspendHeader{
			Lease: lease.ID, Units: out.Units, Events: out.Events,
		}, out.Snapshot)
	default:
		logf("lease %d: done, %d snapshot bytes", lease.ID, len(out.Snapshot))
		return writeHdrBlob(conn, MsgResult, ResultHeader{Lease: lease.ID}, out.Snapshot)
	}
}

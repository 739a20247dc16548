// Command sde-worker is one member of an exploration-service fleet: it
// connects to an sde-serve coordinator and asks for work — a request the
// coordinator holds until it has a lease to answer with, so an idle worker
// polls nothing — executes each leased shard work item with periodic
// durable checkpoints, and streams the finished leaf's snapshot back from
// memory.
//
// Usage:
//
//	sde-worker -connect 127.0.0.1:7117 -workdir /var/tmp/sde-w0
//
// The worker is stateless apart from its work directory: killing it
// mid-lease loses nothing (the coordinator requeues the lease, and a
// worker restarted with the same -workdir resumes from its own
// checkpoints). -retry makes it reconnect after coordinator restarts.
// It has no layer flags: which layers a lease runs with is part of the job
// (the "layers" field of its spec), so a job's result cannot depend on
// which worker happened to execute which lease.
//
// Periodic checkpoints are cost-paced by default: at most every 256 events,
// and only once the lease has explored for 8 times what its last checkpoint
// cost (a 2 ms floor before its first), so at most 1/8 of a lease goes into
// checkpoints, a lease shorter than 16 ms writes no file at all, and a
// crash costs the re-issued lease at most 8 checkpoint costs plus 256
// events of rework. -checkpoint-every N checkpoints after every N events
// exactly instead.
//
// -crash-after-checkpoints N is a chaos hook for recovery testing: the
// process exits abruptly (code 3, no protocol goodbye) once the active
// lease's checkpoint file has been observed N times (periodic checkpoints
// only: pair it with -checkpoint-every). -crash-after-events N does the
// same once a lease has processed N events — below 256 at the default
// schedule, that is before the lease's first checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sde/internal/dist"
)

func main() {
	err := run(os.Args[1:])
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "sde-worker:", err)
	if errors.Is(err, dist.ErrCrashed) {
		os.Exit(3)
	}
	os.Exit(1)
}

func run(args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	connect := fs.String("connect", "", "coordinator address (host:port), required")
	name := fs.String("name", "", "worker name (default host-pid)")
	workdir := fs.String("workdir", "", "checkpoint work directory, required")
	heartbeat := fs.Duration("heartbeat", 500*time.Millisecond, "heartbeat interval while executing a lease")
	checkpointEvery := fs.Int("checkpoint-every", 0, "checkpoint after every n events exactly (0 = cost-paced: at most 1/8 of a lease goes into periodic checkpoints)")
	crashAfter := fs.Int("crash-after-checkpoints", 0, "chaos hook: crash abruptly after observing the lease checkpoint N times")
	crashAfterEvents := fs.Int("crash-after-events", 0, "chaos hook: crash abruptly once a lease has processed N events")
	retry := fs.Duration("retry", 0, "reconnect after connection loss, waiting this long (0 = exit)")
	quiet := fs.Bool("quiet", false, "suppress per-lease logging")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *connect == "" {
		return fmt.Errorf("-connect is required")
	}
	if *workdir == "" {
		return fmt.Errorf("-workdir is required")
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sde-worker[%s]: %s\n", *name, fmt.Sprintf(format, args...))
	}
	if *quiet {
		logf = nil
	}
	opts := dist.WorkerOptions{
		Name:                  *name,
		WorkDir:               *workdir,
		HeartbeatEvery:        *heartbeat,
		CheckpointEvery:       *checkpointEvery,
		CrashAfterCheckpoints: *crashAfter,
		CrashAfterEvents:      *crashAfterEvents,
		Logf:                  logf,
	}

	for {
		err := dist.RunWorker(ctx, *connect, opts)
		switch {
		case err == nil:
			return nil // clean shutdown on signal
		case errors.Is(err, dist.ErrCrashed):
			return err
		case *retry <= 0:
			return err
		}
		if logf != nil {
			logf("connection lost (%v), retrying in %v", err, *retry)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*retry):
		}
	}
}

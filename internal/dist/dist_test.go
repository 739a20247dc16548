package dist

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sde"
	"sde/internal/snap"
)

// testSpec is the reference workload: small enough for CI, sharded deep
// enough (MaxShardBits >= 2) to exercise multi-lease scheduling.
var testSpec = sde.ScenarioSpec{
	Workload: "collect",
	Topology: "grid:3",
	Packets:  2,
	Drops:    "route+neighbors",
}

// oracleDigest runs the spec in-process through the shard scheduler —
// the ground truth every distributed run must reproduce bit-for-bit.
func oracleDigest(t *testing.T, spec sde.ScenarioSpec, bits, testCases int) string {
	t.Helper()
	s, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sde.RunScenarioSharded(s, bits)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := rep.Digest(testCases)
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

func startCoordinator(t *testing.T, opts Options) (*Coordinator, string) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c := NewCoordinator(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l)
	t.Cleanup(func() { c.Close() })
	return c, l.Addr().String()
}

// startWorker runs a worker until ctx is cancelled or the test ends,
// reporting its exit error on the returned channel. The test's cleanup
// stops the worker and waits for RunWorker to return before the work
// directory is removed and before the test is over: a worker still
// checkpointing into a removed directory, or logging through a finished
// test, fails the run.
func startWorker(t *testing.T, ctx context.Context, addr string, opts WorkerOptions) <-chan error {
	t.Helper()
	if opts.WorkDir == "" {
		opts.WorkDir = t.TempDir()
	}
	if opts.Logf == nil {
		name := opts.Name
		opts.Logf = func(format string, args ...any) {
			t.Logf("["+name+"] "+format, args...)
		}
	}
	ctx, stop := context.WithCancel(ctx)
	errc := make(chan error, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		errc <- RunWorker(ctx, addr, opts)
	}()
	// Registered after TempDir's, so it runs first: cleanups are LIFO.
	t.Cleanup(func() {
		stop()
		<-exited
	})
	return errc
}

func waitJob(t *testing.T, c *Coordinator, id string, timeout time.Duration) JobStatus {
	t.Helper()
	select {
	case <-c.WaitJob(id):
	case <-time.After(timeout):
		st, _ := c.JobStatus(id)
		t.Fatalf("job %s did not finish in %v: %+v", id, timeout, st)
	}
	st, ok := c.JobStatus(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	return st
}

// TestServiceBitIdentical is the acceptance test of the exploration
// service: two workers lease shards of a submitted job over TCP and the
// assembled report's digest equals the in-process sharded run's.
func TestServiceBitIdentical(t *testing.T) {
	c, addr := startCoordinator(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, ctx, addr, WorkerOptions{Name: "w0"})
	startWorker(t, ctx, addr, WorkerOptions{Name: "w1"})

	id, err := c.AddJob(testSpec, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, c, id, 60*time.Second)
	if st.State != JobDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	want := oracleDigest(t, testSpec, 2, 8)
	if st.Digest != want {
		t.Errorf("distributed digest %s != in-process digest %s", st.Digest, want)
	}
	if st.Completed != 4 {
		t.Errorf("completed leaves = %d, want 4", st.Completed)
	}
	if _, digest, _, err := c.JobReport(id); err != nil || digest != want {
		t.Errorf("JobReport digest = %s, %v", digest, err)
	}
}

// TestServiceWorkerCrashRecovery kills one worker mid-lease — an abrupt
// connection drop, like a SIGKILL — and requires the surviving fleet to
// finish the job with a report bit-identical to an uninterrupted
// in-process run: once with a durable checkpoint of the lease on disk, and
// once at the default schedule before the lease's first paced checkpoint.
func TestServiceWorkerCrashRecovery(t *testing.T) {
	cases := []struct {
		name    string
		crasher WorkerOptions
		// durable: the crash leaves a checkpoint of the lease behind. The
		// injected crash stops the engine, and a stopped run writes nothing
		// on its way out — like the kill it stands for.
		durable bool
	}{
		// Checkpoint every event so the crash provably happens with a
		// durable checkpoint on disk, mid-lease.
		{"after a checkpoint", WorkerOptions{CheckpointEvery: 1, CrashAfterCheckpoints: 3}, true},
		{"before the first paced checkpoint", WorkerOptions{CrashAfterEvents: 20}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, addr := startCoordinator(t, Options{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			crashDir := t.TempDir()
			opts := tc.crasher
			opts.Name, opts.WorkDir = "crasher", crashDir
			crasher := startWorker(t, ctx, addr, opts)

			id, err := c.AddJob(testSpec, 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-crasher:
				if err != ErrCrashed {
					t.Fatalf("crasher exited with %v, want ErrCrashed", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("crash hook never fired")
			}
			if n := checkpointFiles(t, crashDir); (n > 0) != tc.durable {
				t.Fatalf("the crash left %d checkpoint files in the crasher's work directory, durable = %v", n, tc.durable)
			}

			// The fleet that picks up the pieces: one fresh worker, plus the
			// "restarted" crasher reusing its work directory — its re-issued
			// lease resumes from the checkpoint the crash left behind, or
			// starts over when there is none.
			startWorker(t, ctx, addr, WorkerOptions{Name: "w0"})
			startWorker(t, ctx, addr, WorkerOptions{Name: "crasher", WorkDir: crashDir})

			st := waitJob(t, c, id, 60*time.Second)
			if st.State != JobDone {
				t.Fatalf("job state = %s (%s)", st.State, st.Error)
			}
			want := oracleDigest(t, testSpec, 2, 8)
			if st.Digest != want {
				t.Errorf("post-crash digest %s != in-process digest %s", st.Digest, want)
			}
			reg := c.Registry()
			if n := reg.Value("sde_lease_requeues_total", map[string]string{"reason": "disconnect"}); n < 1 {
				t.Errorf("disconnect requeues = %v, want >= 1", n)
			}
		})
	}
}

// checkpointFiles counts the checkpoints under a worker's work directory.
func checkpointFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Name() == snap.CheckpointFile {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestServiceLeaseExpiry: a worker that takes a lease and then hangs
// (connection open, no heartbeats) must lose it to TTL expiry, and the
// job must still finish bit-identically on a healthy worker.
func TestServiceLeaseExpiry(t *testing.T) {
	c, addr := startCoordinator(t, Options{LeaseTTL: 300 * time.Millisecond})

	// A hand-rolled zombie worker: handshake, take one lease, go silent.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMsg(conn, MsgHello, Hello{Name: "zombie", Wire: snap.WireVersion}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := snap.ReadFrame(conn); err != nil || typ != MsgWelcome {
		t.Fatalf("handshake: type %d, %v", typ, err)
	}

	id, err := c.AddJob(testSpec, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn, MsgReady, struct{}{}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := snap.ReadFrame(conn)
	if err != nil || typ != MsgLease {
		t.Fatalf("expected a lease, got type %d, %v", typ, err)
	}
	if _, parent, err := parseHdrBlob[Lease](payload); err != nil || len(parent) != 0 {
		t.Fatalf("lease: %v, %d frontier bytes on a bit-shard item", err, len(parent))
	}
	// ... and now the zombie says nothing, forever.

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, ctx, addr, WorkerOptions{Name: "healthy"})

	st := waitJob(t, c, id, 60*time.Second)
	if st.State != JobDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	want := oracleDigest(t, testSpec, 1, 8)
	if st.Digest != want {
		t.Errorf("digest %s != in-process digest %s", st.Digest, want)
	}
	if n := c.Registry().Value("sde_lease_requeues_total", map[string]string{"reason": "expired"}); n < 1 {
		t.Errorf("expired requeues = %v, want >= 1", n)
	}
}

// TestServiceVersionNegotiation: a worker speaking a different wire
// version must be rejected at handshake with an error naming both
// versions.
func TestServiceVersionNegotiation(t *testing.T) {
	_, addr := startCoordinator(t, Options{})
	for _, tc := range []struct {
		name string
		wire int
	}{
		{"future", snap.WireVersion + 1},
		{"wire-8", 8},   // the last version whose snapshots and stats carried state merging
		{"wire-9", 9},   // the last version whose stats carried symmetry reduction
		{"wire-10", 10}, // the last version whose stats carried the query optimizer's counters
		{"wire-11", 11}, // the last version with a positional stats section and FNV-1a checksums
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := writeMsg(conn, MsgHello, Hello{Name: tc.name, Wire: tc.wire}); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := snap.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if typ != MsgError {
				t.Fatalf("expected MsgError, got type %d", typ)
			}
			em, err := decode[ErrorMsg](payload)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"version", fmt.Sprint(tc.wire), fmt.Sprint(snap.WireVersion)} {
				if !strings.Contains(em.Msg, want) {
					t.Errorf("rejection %q does not mention %q", em.Msg, want)
				}
			}
		})
	}
}

// TestServiceCancel: cancelling a queued job flips it to cancelled and
// leaves nothing for workers.
func TestServiceCancel(t *testing.T) {
	c, addr := startCoordinator(t, Options{})
	id, err := c.AddJob(testSpec, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CancelJob(id); err != nil {
		t.Fatal(err)
	}
	st, _ := c.JobStatus(id)
	if st.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	// A worker connecting afterwards finds no work and idles.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, ctx, addr, WorkerOptions{Name: "idle"})
	time.Sleep(100 * time.Millisecond)
	if st, _ := c.JobStatus(id); st.Completed != 0 || st.Outstanding != 0 {
		t.Errorf("cancelled job gained work: %+v", st)
	}
	if _, _, _, err := c.JobReport(id); err == nil {
		t.Error("JobReport on a cancelled job succeeded")
	}
}

// TestAddJobLogsShardabilityNote: the service entry point must surface
// the same shardability warning sde-run prints for flag-driven runs. A
// ScenarioSpec whose program has candidate shard points but no shardable
// nodes is accepted (it still runs, as a single shard) with the note in
// the coordinator log; a shardable spec submits silently.
func TestAddJobLogsShardabilityNote(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	c := NewCoordinator(Options{Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	defer c.Close()

	logged := func() string {
		mu.Lock()
		defer mu.Unlock()
		return strings.Join(lines, "\n")
	}

	warn := sde.ScenarioSpec{
		Workload: "threshold", Topology: "line:3", Algorithm: "sds",
		Packets: 2, Drops: "none",
	}
	if _, err := c.AddJob(warn, 2, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logged(), "cannot partition") {
		t.Fatalf("note missing from coordinator log:\n%s", logged())
	}

	mu.Lock()
	lines = nil
	mu.Unlock()
	if _, err := c.AddJob(testSpec, 2, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(logged(), "cannot partition") {
		t.Fatalf("shardable spec drew a shardability note:\n%s", logged())
	}
}

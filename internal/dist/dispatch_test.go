package dist

// Dispatch: an idle worker's Ready is parked, and whatever queues a task —
// a submission, a suspension's fan-out, a requeue — writes the lease to a
// parked worker before it returns. The assertions are on what has happened
// by the time a call returns and on what arrives on a connection, never on
// elapsed time: the only waits are for the coordinator to have read a
// frame the test just wrote.

import (
	"context"
	"net"
	"testing"
	"time"

	"sde"
	"sde/internal/snap"
)

// parkedWorker is a hand-rolled worker connection: handshake done, Ready
// sent, nothing read yet.
type parkedWorker struct {
	name string
	conn net.Conn
}

// park connects a raw worker, sends its Ready and returns once the
// coordinator holds it: want is the number of parked workers to wait for.
func park(t *testing.T, c *Coordinator, addr, name string, want float64) *parkedWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeMsg(conn, MsgHello, Hello{Name: name, Wire: snap.WireVersion}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := snap.ReadFrame(conn); err != nil || typ != MsgWelcome {
		t.Fatalf("%s handshake: type %d, %v", name, typ, err)
	}
	if err := writeMsg(conn, MsgReady, struct{}{}); err != nil {
		t.Fatal(err)
	}
	waitGauge(t, c, "sde_workers_idle", want)
	return &parkedWorker{name: name, conn: conn}
}

func waitGauge(t *testing.T, c *Coordinator, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Registry().Value(name, nil) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v, want %v", name, c.Registry().Value(name, nil), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// lease reads the next frame, which must be a lease: no other frame —
// there is no "no work" any more — may answer a Ready.
func (p *parkedWorker) lease(t *testing.T) (Lease, []byte) {
	t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := snap.ReadFrame(p.conn)
	if err != nil || typ != MsgLease {
		t.Fatalf("%s: expected a lease, got type %d, %v", p.name, typ, err)
	}
	l, parent, err := parseHdrBlob[Lease](payload)
	if err != nil {
		t.Fatal(err)
	}
	return l, parent
}

func issued(c *Coordinator, worker string) float64 {
	return c.Registry().Value("sde_leases_issued_total", map[string]string{"worker": worker})
}

// TestDispatchOnSubmit: two parked workers hold their leases by the time
// AddJobWith returns.
func TestDispatchOnSubmit(t *testing.T) {
	c, addr := startCoordinator(t, Options{})
	p0 := park(t, c, addr, "p0", 1)
	p1 := park(t, c, addr, "p1", 2)

	if _, err := c.AddJob(testSpec, 1, 8); err != nil {
		t.Fatal(err)
	}
	if a, b := issued(c, "p0"), issued(c, "p1"); a != 1 || b != 1 {
		t.Fatalf("after AddJob returned: %v leases issued to p0, %v to p1; want one each", a, b)
	}
	if n := c.Registry().Value("sde_workers_idle", nil); n != 0 {
		t.Errorf("sde_workers_idle = %v with both workers leased", n)
	}
	l0, _ := p0.lease(t)
	l1, _ := p1.lease(t)
	if l0.Item.Depth != 1 || l1.Item.Depth != 1 || l0.Item.Bits == l1.Item.Bits {
		t.Errorf("leases %+v and %+v are not the job's two bit shards", l0.Item, l1.Item)
	}
}

// TestDispatchSkipsDisconnected: a parked worker that hangs up is dropped
// from the idle list, so the next task goes to the survivor at once — not
// to the dead connection, and not after a lease TTL.
func TestDispatchSkipsDisconnected(t *testing.T) {
	c, addr := startCoordinator(t, Options{LeaseTTL: time.Hour})
	gone := park(t, c, addr, "gone", 1) // the older Ready: first in line
	survivor := park(t, c, addr, "survivor", 2)

	gone.conn.Close()
	waitGauge(t, c, "sde_workers_connected", 1)
	if n := c.Registry().Value("sde_workers_idle", nil); n != 1 {
		t.Fatalf("sde_workers_idle = %v after one of two parked workers hung up", n)
	}

	if _, err := c.AddJob(testSpec, 0, 8); err != nil {
		t.Fatal(err)
	}
	if a, b := issued(c, "gone"), issued(c, "survivor"); a != 0 || b != 1 {
		t.Fatalf("after AddJob returned: %v leases issued to the dead worker, %v to the survivor", a, b)
	}
	survivor.lease(t)
}

// TestDispatchOnRequeue: a lease lost with its worker's connection goes to
// a parked worker as part of the teardown, with no TTL involved.
func TestDispatchOnRequeue(t *testing.T) {
	c, addr := startCoordinator(t, Options{LeaseTTL: time.Hour})
	holder := park(t, c, addr, "holder", 1)
	if _, err := c.AddJob(testSpec, 0, 8); err != nil {
		t.Fatal(err)
	}
	first, _ := holder.lease(t)
	spare := park(t, c, addr, "spare", 1)

	holder.conn.Close()
	again, _ := spare.lease(t)
	if again.ID == first.ID || again.Item.Label() != first.Item.Label() {
		t.Errorf("requeued lease %d (%s) is not a re-issue of lease %d (%s)",
			again.ID, again.Item.Label(), first.ID, first.Item.Label())
	}
	if n := c.Registry().Value("sde_lease_requeues_total", map[string]string{"reason": "disconnect"}); n != 1 {
		t.Errorf("disconnect requeues = %v, want 1", n)
	}
}

// TestDispatchContinuations: the continuation items a suspension fans out
// reach a worker that was parked while the root lease ran; when that worker
// then vanishes, the job still ends with the in-process digest.
func TestDispatchContinuations(t *testing.T) {
	spec := testSpec
	spec.Algorithm = "cob"
	const horizon = 300

	c, addr := startCoordinator(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, ctx, addr, WorkerOptions{Name: "w0"})
	waitGauge(t, c, "sde_workers_idle", 1) // w0 is first in line for the root lease
	p := park(t, c, addr, "parked", 2)

	id, err := c.AddJobWith(spec, JobOptions{TestCases: 8, DepthHorizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	l, parent := p.lease(t)
	if len(l.Item.Cont) != 1 || len(parent) == 0 || l.EventTarget != 2*horizon {
		t.Fatalf("parked worker got %+v (target %d, %d frontier bytes), want a first-generation continuation",
			l.Item, l.EventTarget, len(parent))
	}
	p.conn.Close()

	st := waitJob(t, c, id, 60*time.Second)
	if st.State != JobDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	if want := oracleDigestHorizon(t, spec, 0, 8, horizon, 0); st.Digest != want {
		t.Errorf("digest %s != in-process digest %s", st.Digest, want)
	}
}

// TestFleetJobWritesNoCheckpoints: a depth-partitioned deepchain job is
// dozens of leases of a few milliseconds each. Leaves and frontiers ship
// from memory, so the only files a worker's directories can hold are
// periodic checkpoints — none at all where every lease ends under the
// schedule's floor, which a slow host (the race detector) may not manage;
// what holds anywhere is that no directory has a file without a periodic
// checkpoint counted in the job's stats. (One file per lease, final or
// frontier, was the rule before: dozens of files against a handful counted.)
func TestFleetJobWritesNoCheckpoints(t *testing.T) {
	spec := sde.ScenarioSpec{Workload: "deepchain", Topology: "line:5", Algorithm: "cob", Iters: 32}
	const horizon, fanout = 400, 4

	c, addr := startCoordinator(t, Options{Logf: func(string, ...any) {}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	work := t.TempDir()
	for _, name := range []string{"w0", "w1"} {
		startWorker(t, ctx, addr, WorkerOptions{Name: name, WorkDir: work, Logf: func(string, ...any) {}})
	}
	id, err := c.AddJobWith(spec, JobOptions{TestCases: 8, DepthHorizon: horizon, HorizonFanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, c, id, 60*time.Second)
	if st.State != JobDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	if want := oracleDigestHorizon(t, spec, 0, 8, horizon, fanout); st.Digest != want {
		t.Errorf("digest %s != in-process digest %s", st.Digest, want)
	}
	if n := c.Registry().Value("sde_continuation_leases_total", nil); n < 4 {
		t.Fatalf("%v continuation leases: the job is too shallow to say anything", n)
	}
	ck, files := st.Stats.Checkpoint, checkpointFiles(t, work)
	t.Logf("%d checkpoint files; %d periodic checkpoints written, %d boundaries passed over", files, ck.Written, ck.Skipped)
	if files > ck.Written {
		t.Errorf("%d checkpoint files under the workers' directories, but only %d periodic checkpoints were written", files, ck.Written)
	}
	if ck.Skipped == 0 {
		t.Error("no grid boundary passed over: the leases are not short")
	}
}

package dist

import (
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"sde"
	"sde/internal/metrics"
	"sde/internal/shard"
	"sde/internal/snap"
)

// Job states.
const (
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Options configures a Coordinator. The zero value works.
type Options struct {
	// Name identifies the coordinator in the handshake.
	Name string
	// LeaseTTL expires leases whose worker stopped heartbeating
	// (default 15s). The item is requeued; determinism makes the
	// re-issued lease produce the identical leaf.
	LeaseTTL time.Duration
	// RetryMillis is vestigial and ignored: it was the idle-worker poll
	// interval of wire version 7, and an idle worker's Ready is now held
	// until there is a lease to answer it with. The field remains only
	// because the benchmark harness, which a change that claims a gain may
	// not edit, still sets it.
	RetryMillis int
	// Registry receives service metrics (created if nil).
	Registry *metrics.PromRegistry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Coordinator owns the shard queues of submitted jobs and leases work to
// connected workers. Work-stealing across jobs is inherent: any idle
// worker serves whichever job has queued items, round-robin.
//
// Workers pull, and the coordinator holds what it cannot answer: a Ready
// that finds every queue empty parks its worker in idle, and whatever
// queues a task next — a submission, a suspension's fan-out, a requeue —
// hands it to the longest-parked worker before it returns.
// Every method that can queue a task therefore releases the lock through
// unlockAndDispatch.
type Coordinator struct {
	opts Options
	reg  *metrics.PromRegistry

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string       // job ids, submission order
	rr        int            // round-robin cursor into order
	idle      []*workerConn  // parked Readys, oldest first
	bg        sync.WaitGroup // the sweeper and the connection handlers
	nextJobID int
	nextLease uint64
	leases    map[uint64]*lease
	closed    bool
	stop      chan struct{}
	listeners []net.Listener
	conns     map[net.Conn]bool
}

type job struct {
	id        string
	spec      sde.ScenarioSpec
	shardBits int
	testCases int
	scenario  sde.Scenario
	state     string
	// q is the job's shard queue: queued and leased tasks (each holding
	// the suspended frontier it resumes from) and the leaves shipped so
	// far. A frontier is freed when its last task completes or suspends
	// again, and wholesale when the job is cancelled.
	q      *shard.Queue[sde.ShardLeaf]
	report *sde.ShardedReport
	digest string
	errMsg string
	done   chan struct{}
}

type lease struct {
	id       uint64
	jobID    string
	task     *shard.Task
	worker   string
	holder   *workerConn
	lastBeat time.Time
}

// workerConn is one worker's connection. Frames reach it from its own
// handler (heartbeat acks) and from whichever goroutine queued the task
// that answers its parked Ready, so every write goes through send.
type workerConn struct {
	name string
	conn net.Conn
	wmu  sync.Mutex
}

// send runs one frame write with the connection to itself. A peer that
// does not take the frame within a lease TTL is as dead as one that stopped
// heartbeating: the connection is closed, and its handler's teardown
// requeues whatever it held — including a lease this write was granting.
func (w *workerConn) send(ttl time.Duration, write func(net.Conn) error) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.conn.SetWriteDeadline(time.Now().Add(ttl))
	err := write(w.conn)
	if err != nil {
		w.conn.Close()
	}
	return err
}

// JobStatus is a point-in-time snapshot of one job, JSON-ready for the
// job API.
type JobStatus struct {
	ID          string           `json:"id"`
	State       string           `json:"state"`
	Spec        sde.ScenarioSpec `json:"spec"`
	ShardBits   int              `json:"shard_bits"`
	Queued      int              `json:"queued"`
	Outstanding int              `json:"outstanding"`
	Completed   int              `json:"completed"`
	States      int              `json:"states,omitempty"`
	DScenarios  string           `json:"dscenarios,omitempty"`
	Digest      string           `json:"digest,omitempty"`
	// Stats is what every layer did across a finished job: the sum of its
	// leaves' counters, each carried home in the leaf's snapshot.
	Stats *sde.RunStats `json:"stats,omitempty"`
	Error string        `json:"error,omitempty"`
}

// NewCoordinator builds a coordinator and starts its lease-expiry
// sweeper. Close stops it.
func NewCoordinator(opts Options) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.Name == "" {
		opts.Name = "sde-serve"
	}
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewPromRegistry()
	}
	reg.Declare("sde_workers_connected", "currently connected workers", metrics.PromGauge)
	reg.Declare("sde_workers_idle", "connected workers whose request for work is held, waiting for a task", metrics.PromGauge)
	reg.Declare("sde_jobs_submitted_total", "jobs accepted by the job API", metrics.PromCounter)
	reg.Declare("sde_jobs_active", "jobs not yet done, failed, or cancelled", metrics.PromGauge)
	reg.Declare("sde_leases_issued_total", "work leases granted to workers", metrics.PromCounter)
	reg.Declare("sde_lease_requeues_total", "leases returned to the queue, by reason", metrics.PromCounter)
	reg.Declare("sde_results_total", "shard-leaf results received from workers", metrics.PromCounter)
	reg.Declare("sde_heartbeats_total", "worker heartbeats received", metrics.PromCounter)
	reg.Declare("sde_worker_leases_active", "leases currently held, per worker", metrics.PromGauge)
	reg.Declare("sde_lease_suspensions_total", "leases suspended at a depth horizon and fanned out", metrics.PromCounter)
	reg.Declare("sde_continuation_leases_total", "continuation work leases granted to workers", metrics.PromCounter)
	reg.Declare("sde_continuation_blobs", "suspended frontiers currently held for continuation items", metrics.PromGauge)
	c := &Coordinator{
		opts:   opts,
		reg:    reg,
		jobs:   make(map[string]*job),
		leases: make(map[uint64]*lease),
		stop:   make(chan struct{}),
		conns:  make(map[net.Conn]bool),
	}
	c.bg.Add(1)
	go c.sweepLoop()
	return c
}

// Registry exposes the coordinator's metrics registry (for /metrics).
func (c *Coordinator) Registry() *metrics.PromRegistry { return c.reg }

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Close stops the sweeper, closes all listeners and worker connections,
// and returns once the sweeper and every connection's handler have exited:
// nothing of the coordinator runs, or logs, after it.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.stop)
	listeners := c.listeners
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	c.bg.Wait()
	return nil
}

// Serve accepts worker connections until the listener closes.
func (c *Coordinator) Serve(l net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("dist: coordinator closed")
	}
	c.listeners = append(c.listeners, l)
	c.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-c.stop:
				return nil
			default:
				return err
			}
		}
		// On the books before its handler starts, so Close finds the
		// connection to close — a peer silent since accept included — and
		// the handler to wait for.
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return nil
		}
		c.conns[conn] = true
		c.bg.Add(1)
		c.mu.Unlock()
		go func() {
			defer c.bg.Done()
			c.handleConn(conn)
		}()
	}
}

// JobOptions parameterises AddJobWith.
type JobOptions struct {
	// ShardBits is the job's pre-split into 2^ShardBits bit shards
	// (clamped to the scenario's MaxShardBits).
	ShardBits int
	// TestCases is the per-shard test-case budget the job digest is
	// computed with.
	TestCases int
	// DepthHorizon and HorizonFanout are the depth dimension of the
	// partition, exactly as in sde.ShardConfig: in-process digest oracles
	// must use the same values.
	DepthHorizon  uint64
	HorizonFanout int
}

// AddJob accepts a job with default depth-partitioning options; see
// AddJobWith.
func (c *Coordinator) AddJob(spec sde.ScenarioSpec, shardBits, testCases int) (string, error) {
	return c.AddJobWith(spec, JobOptions{ShardBits: shardBits, TestCases: testCases})
}

// AddJobWith accepts a job: the spec is materialised (validating it), the
// initial shard queue is enumerated at opts.ShardBits (clamped to the
// scenario's MaxShardBits), and idle workers have their leases by the time
// it returns.
func (c *Coordinator) AddJobWith(spec sde.ScenarioSpec, opts JobOptions) (string, error) {
	scenario, err := spec.Scenario()
	if err != nil {
		return "", err
	}
	if opts.ShardBits < 0 {
		return "", fmt.Errorf("dist: shard bits must be >= 0 (got %d)", opts.ShardBits)
	}
	maxBits := scenario.MaxShardBits()
	shardBits := min(opts.ShardBits, maxBits)
	q, err := shard.New[sde.ShardLeaf](shard.Partition{
		ShardBits:     shardBits,
		DepthHorizon:  opts.DepthHorizon,
		HorizonFanout: opts.HorizonFanout,
	}, maxBits)
	if err != nil {
		return "", fmt.Errorf("dist: %w", err)
	}
	// Same heads-up sde-run prints for flag-driven runs: a spec whose
	// program has candidate shard points but no shardable nodes yields a
	// single-shard job no matter what shardBits asks for.
	if note := scenario.ShardabilityNote(); note != "" {
		c.logf("job spec %s: %s", spec, note)
	}
	if maxBits == 0 && opts.DepthHorizon == 0 {
		c.logf("job spec %s: 0 shardable bits and no depth horizon — the job runs as a single lease and a multi-worker fleet sits idle; set a depth horizon to fan deep exploration out", spec)
	}
	c.mu.Lock()
	defer c.unlockAndDispatch()
	if c.closed {
		return "", fmt.Errorf("dist: coordinator closed")
	}
	c.nextJobID++
	j := &job{
		id:        fmt.Sprintf("job-%d", c.nextJobID),
		spec:      spec,
		shardBits: shardBits,
		testCases: opts.TestCases,
		scenario:  scenario,
		state:     JobRunning,
		q:         q,
		done:      make(chan struct{}),
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.reg.Add("sde_jobs_submitted_total", nil, 1)
	c.reg.Set("sde_jobs_active", nil, float64(c.activeJobsLocked()))
	c.logf("job %s submitted: %s, %d initial shards", j.id, spec, q.Queued())
	return j.id, nil
}

// CancelJob marks a job cancelled: its queue is dropped and running
// leases are told to stop on their next heartbeat.
func (c *Coordinator) CancelJob(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return fmt.Errorf("dist: no job %s", id)
	}
	if j.state != JobRunning {
		return nil
	}
	j.state = JobCancelled
	j.q.Abandon()
	c.reg.Set("sde_continuation_blobs", nil, float64(c.contBlobsLocked()))
	close(j.done)
	c.reg.Set("sde_jobs_active", nil, float64(c.activeJobsLocked()))
	c.logf("job %s cancelled", id)
	return nil
}

// JobStatus snapshots one job.
func (c *Coordinator) JobStatus(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return c.statusLocked(j), true
}

// Jobs snapshots every job in submission order.
func (c *Coordinator) Jobs() []JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobStatus, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.statusLocked(c.jobs[id]))
	}
	return out
}

func (c *Coordinator) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		ShardBits:   j.shardBits,
		Queued:      j.q.Queued(),
		Outstanding: j.q.InFlight(),
		Completed:   len(j.q.Leaves()),
		Digest:      j.digest,
		Error:       j.errMsg,
	}
	if j.report != nil {
		st.States = j.report.States()
		st.DScenarios = j.report.DScenarios().String()
		total := j.report.Stats()
		st.Stats = &total
	}
	return st
}

// WaitJob returns a channel closed when the job reaches a terminal
// state (nil for unknown jobs).
func (c *Coordinator) WaitJob(id string) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j, ok := c.jobs[id]; ok {
		return j.done
	}
	return nil
}

// JobReport returns a finished job's assembled report, its digest, and
// the test-case budget the digest was computed with.
func (c *Coordinator) JobReport(id string) (*sde.ShardedReport, string, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, "", 0, fmt.Errorf("dist: no job %s", id)
	}
	switch j.state {
	case JobDone:
		return j.report, j.digest, j.testCases, nil
	case JobFailed:
		return nil, "", 0, fmt.Errorf("dist: job %s failed: %s", id, j.errMsg)
	case JobCancelled:
		return nil, "", 0, fmt.Errorf("dist: job %s was cancelled", id)
	default:
		return nil, "", 0, fmt.Errorf("dist: job %s still %s", id, j.state)
	}
}

func (c *Coordinator) activeJobsLocked() int {
	n := 0
	for _, j := range c.jobs {
		if j.state == JobRunning {
			n++
		}
	}
	return n
}

func (c *Coordinator) contBlobsLocked() int {
	n := 0
	for _, j := range c.jobs {
		n += j.q.Frontiers()
	}
	return n
}

// handleConn speaks the worker protocol on one connection.
func (c *Coordinator) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()
	typ, payload, err := snap.ReadFrame(conn)
	if err != nil || typ != MsgHello {
		c.logf("conn %s: bad handshake: %v", conn.RemoteAddr(), err)
		return
	}
	hello, err := decode[Hello](payload)
	if err != nil {
		return
	}
	if hello.Wire != snap.WireVersion {
		writeMsg(conn, MsgError, ErrorMsg{Msg: fmt.Sprintf(
			"wire version %d not supported (coordinator speaks %d)",
			hello.Wire, snap.WireVersion)})
		c.logf("worker %s rejected: wire version %d != %d",
			hello.Name, hello.Wire, snap.WireVersion)
		return
	}
	if err := writeMsg(conn, MsgWelcome, Welcome{Name: c.opts.Name, Wire: snap.WireVersion}); err != nil {
		return
	}
	w := &workerConn{name: hello.Name, conn: conn}
	workerLabel := map[string]string{"worker": w.name}

	c.reg.AddGauge("sde_workers_connected", nil, 1)
	c.reg.Set("sde_worker_leases_active", workerLabel, 0)
	c.logf("worker %s connected from %s", w.name, conn.RemoteAddr())

	defer func() {
		c.mu.Lock()
		// Out of the idle list first: nothing queued from here on, the
		// requeues below included, may be granted to this connection.
		if i := slices.Index(c.idle, w); i >= 0 {
			c.idle = slices.Delete(c.idle, i, i+1)
		}
		var held []*lease
		for _, l := range c.leases {
			if l.holder == w {
				held = append(held, l)
			}
		}
		for _, l := range held {
			c.requeueLocked(l, "disconnect")
		}
		c.unlockAndDispatch()
		c.reg.AddGauge("sde_workers_connected", nil, -1)
		c.reg.DeleteSeries("sde_worker_leases_active", workerLabel)
		c.logf("worker %s disconnected (%d leases requeued)", w.name, len(held))
	}()

	for {
		typ, payload, err := snap.ReadFrame(conn)
		if err != nil {
			return
		}
		switch typ {
		case MsgReady:
			c.park(w)
		case MsgHeartbeat:
			hb, err := decode[Heartbeat](payload)
			if err != nil {
				return
			}
			ack := c.beat(w, hb)
			if err := w.send(c.opts.LeaseTTL, func(conn net.Conn) error {
				return writeMsg(conn, MsgHeartbeatAck, ack)
			}); err != nil {
				return
			}
		case MsgResult:
			hdr, snapshot, err := parseHdrBlob[ResultHeader](payload)
			if err != nil {
				c.logf("worker %s: bad result: %v", w.name, err)
				return
			}
			c.completeLease(w, hdr, snapshot)
		case MsgSuspend:
			hdr, frontier, err := parseHdrBlob[SuspendHeader](payload)
			if err != nil {
				c.logf("worker %s: bad suspend: %v", w.name, err)
				return
			}
			c.suspendLease(w, hdr, frontier)
		case MsgError:
			em, err := decode[ErrorMsg](payload)
			if err != nil {
				return
			}
			c.failLease(w, em)
		default:
			c.logf("worker %s: unexpected message type %d", w.name, typ)
			return
		}
	}
}

// park records a worker's Ready. It is answered at once when a task is
// queued, and otherwise by whoever queues the next one.
func (c *Coordinator) park(w *workerConn) {
	c.mu.Lock()
	defer c.unlockAndDispatch()
	if !slices.Contains(c.idle, w) { // a second Ready buys no second lease
		c.idle = append(c.idle, w)
	}
}

// takeTaskLocked takes the next task round-robin across running jobs.
func (c *Coordinator) takeTaskLocked() (*job, *shard.Task) {
	for off := 0; off < len(c.order); off++ {
		j := c.jobs[c.order[(c.rr+off)%len(c.order)]]
		if j.state != JobRunning {
			continue
		}
		if t := j.q.Take(0); t != nil {
			c.rr = (c.rr + off + 1) % len(c.order)
			return j, t
		}
	}
	return nil, nil
}

// grant is a lease on the books and not yet on the wire.
type grant struct {
	w      *workerConn
	msg    Lease
	parent []byte
}

// unlockAndDispatch pairs parked workers with queued tasks, oldest Ready
// first, releases the lock and writes the leases. It is how the lock is
// released wherever a task may have been queued or a worker parked, so no
// task waits while a worker idles — and the one place sde_workers_idle is
// published. The lease is registered before the lock drops: a worker that
// disconnects before its frame is written finds the lease among those it
// holds and requeues it.
func (c *Coordinator) unlockAndDispatch() {
	var grants []grant
	for len(c.idle) > 0 && !c.closed {
		j, t := c.takeTaskLocked()
		if j == nil {
			break
		}
		w := c.idle[0]
		c.idle = c.idle[1:]
		c.nextLease++
		l := &lease{
			id:       c.nextLease,
			jobID:    j.id,
			task:     t,
			worker:   w.name,
			holder:   w,
			lastBeat: time.Now(),
		}
		c.leases[l.id] = l
		grants = append(grants, grant{w: w, parent: t.Parent, msg: Lease{
			ID:          l.id,
			Job:         j.id,
			Spec:        j.spec,
			Item:        t.Item,
			EventTarget: t.Target,
		}})
	}
	c.reg.Set("sde_workers_idle", nil, float64(len(c.idle)))
	c.mu.Unlock()
	for _, g := range grants {
		label := map[string]string{"worker": g.w.name}
		c.reg.Add("sde_leases_issued_total", label, 1)
		c.reg.AddGauge("sde_worker_leases_active", label, 1)
		c.logf("lease %d: shard %s of %s -> %s", g.msg.ID, g.msg.Item.Label(), g.msg.Job, g.w.name)
		if len(g.msg.Item.Cont) > 0 {
			c.reg.Add("sde_continuation_leases_total", nil, 1)
		}
		// A continuation item ships the suspended parent frontier with the
		// lease; frontiers are immutable once stored, so the bytes are
		// written outside the lock. A failed write closes the connection,
		// which is what requeues the lease.
		_ = g.w.send(c.opts.LeaseTTL, func(conn net.Conn) error {
			return writeHdrBlob(conn, MsgLease, g.msg, g.parent)
		})
	}
}

// beat refreshes a lease and answers with its cancel flag.
func (c *Coordinator) beat(w *workerConn, hb Heartbeat) HeartbeatAck {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Add("sde_heartbeats_total", map[string]string{"worker": w.name}, 1)
	ack := HeartbeatAck{Lease: hb.Lease}
	l, ok := c.leases[hb.Lease]
	if !ok || l.holder != w {
		// Expired and re-issued elsewhere, or the job is gone: the
		// worker's effort is wasted — stop it.
		ack.Cancel = true
		return ack
	}
	l.lastBeat = time.Now()
	if j := c.jobs[l.jobID]; j == nil || j.state != JobRunning {
		ack.Cancel = true
	}
	return ack
}

// takeLeaseLocked closes the books on a lease a worker reported on: it
// returns the lease and its job when the report is current — the lease is
// still held by w and its job still running — and nils otherwise.
func (c *Coordinator) takeLeaseLocked(w *workerConn, id uint64) (*lease, *job) {
	l, ok := c.leases[id]
	if !ok || l.holder != w {
		c.logf("worker %s: report for unknown lease %d dropped", w.name, id)
		return nil, nil
	}
	c.dropLeaseLocked(l)
	j := c.jobs[l.jobID]
	if j == nil || j.state != JobRunning {
		return nil, nil
	}
	return l, j
}

// completeLease records a finished leaf and finalises the job when it
// was the last one.
func (c *Coordinator) completeLease(w *workerConn, hdr ResultHeader, snapshot []byte) {
	c.mu.Lock()
	l, j := c.takeLeaseLocked(w, hdr.Lease)
	if l == nil {
		c.mu.Unlock()
		return
	}
	if hdr.Stopped {
		// The worker honoured a cancellation that has since been
		// rescinded, or stopped for its own reasons: the item runs again.
		c.requeueTaskLocked(j, l.task, "stopped")
		c.unlockAndDispatch()
		return
	}
	j.q.Leaf(l.task, sde.ShardLeaf{Item: l.task.Item, Snapshot: snapshot})
	c.reg.Add("sde_results_total", map[string]string{"worker": w.name}, 1)
	if len(l.task.Parent) > 0 {
		c.reg.Set("sde_continuation_blobs", nil, float64(c.contBlobsLocked()))
	}
	finished := j.q.Done()
	c.mu.Unlock()
	c.logf("lease %d: shard %s of %s complete (%d bytes)",
		hdr.Lease, l.task.Item.Label(), l.jobID, len(snapshot))
	if finished {
		c.finalizeJob(j)
	}
}

// suspendLease records a lease that hit its depth horizon: the queue fans
// the shipped frontier out as continuation items.
func (c *Coordinator) suspendLease(w *workerConn, hdr SuspendHeader, frontier []byte) {
	c.mu.Lock()
	defer c.unlockAndDispatch()
	l, j := c.takeLeaseLocked(w, hdr.Lease)
	if l == nil {
		return
	}
	fanout, _ := j.q.Suspend(l.task, hdr.Units, hdr.Events, frontier)
	if fanout == 0 {
		c.reg.Add("sde_lease_requeues_total", map[string]string{"reason": "bad-suspend"}, 1)
		c.logf("lease %d: unexpected suspend from %s requeued", hdr.Lease, w.name)
		return
	}
	c.reg.Add("sde_lease_suspensions_total", nil, 1)
	c.reg.Set("sde_continuation_blobs", nil, float64(c.contBlobsLocked()))
	c.logf("lease %d: shard %s of %s suspended at %d events (%d units) -> %d continuations",
		hdr.Lease, l.task.Item.Label(), l.jobID, hdr.Events, hdr.Units, fanout)
}

// failLease requeues a lease whose execution errored worker-side.
func (c *Coordinator) failLease(w *workerConn, em ErrorMsg) {
	c.mu.Lock()
	defer c.unlockAndDispatch()
	l, ok := c.leases[em.Lease]
	if !ok || l.holder != w {
		return
	}
	c.logf("lease %d: worker %s failed: %s", em.Lease, w.name, em.Msg)
	c.requeueLocked(l, "error")
}

// dropLeaseLocked removes a lease from the books without requeueing.
func (c *Coordinator) dropLeaseLocked(l *lease) {
	delete(c.leases, l.id)
	c.reg.AddGauge("sde_worker_leases_active", map[string]string{"worker": l.worker}, -1)
}

// requeueLocked returns a lost lease's task to its job's queue.
func (c *Coordinator) requeueLocked(l *lease, reason string) {
	c.dropLeaseLocked(l)
	j := c.jobs[l.jobID]
	if j == nil || j.state != JobRunning {
		return
	}
	c.requeueTaskLocked(j, l.task, reason)
	c.logf("lease %d: shard %s of %s requeued (%s)", l.id, l.task.Item.Label(), l.jobID, reason)
}

func (c *Coordinator) requeueTaskLocked(j *job, t *shard.Task, reason string) {
	j.q.Requeue(t)
	c.reg.Add("sde_lease_requeues_total", map[string]string{"reason": reason}, 1)
}

// finalizeJob assembles the leaves into the job's report. Runs outside
// the coordinator lock: assembly resumes every leaf snapshot.
func (c *Coordinator) finalizeJob(j *job) {
	c.mu.Lock()
	if j.state != JobRunning {
		c.mu.Unlock()
		return
	}
	leaves := j.q.Leaves()
	scenario := j.scenario
	testCases := j.testCases
	c.mu.Unlock()

	report, err := sde.AssembleSharded(scenario, leaves)
	var digest string
	if err == nil {
		digest, err = report.Digest(testCases)
	}

	c.mu.Lock()
	if j.state != JobRunning {
		c.mu.Unlock()
		return
	}
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
	} else {
		j.state = JobDone
		j.report = report
		j.digest = digest
	}
	close(j.done)
	c.reg.Set("sde_jobs_active", nil, float64(c.activeJobsLocked()))
	c.mu.Unlock()
	if err != nil {
		c.logf("job %s failed: %v", j.id, err)
	} else {
		c.logf("job %s done: %d shards, digest %s", j.id, len(leaves), digest)
	}
}

// sweepLoop expires leases whose worker stopped heartbeating.
func (c *Coordinator) sweepLoop() {
	defer c.bg.Done()
	interval := c.opts.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.mu.Lock()
			var expired []*lease
			for _, l := range c.leases {
				if time.Since(l.lastBeat) > c.opts.LeaseTTL {
					expired = append(expired, l)
				}
			}
			sort.Slice(expired, func(i, k int) bool { return expired[i].id < expired[k].id })
			for _, l := range expired {
				c.requeueLocked(l, "expired")
			}
			c.unlockAndDispatch()
		}
	}
}

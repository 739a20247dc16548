package shard

import "fmt"

// Partition defines how a run's dscenario space is cut: 2^ShardBits
// initial bit shards, and — when DepthHorizon is non-zero — a suspension
// every DepthHorizon processed events whose frontier fans out
// HorizonFanout ways. A run's leaves, and so its digest, are a function
// of the partition alone: two runs agree bit for bit iff they agree on
// it, whatever executed them.
type Partition struct {
	ShardBits     int
	DepthHorizon  uint64
	HorizonFanout int
}

// defaultHorizonFanout is the fan-out of a suspension when DepthHorizon
// is set and HorizonFanout is not. Small and fixed: each horizon
// generation doubles the parallelism, so a deep run fans out geometrically
// without the fan-out ever depending on pool or fleet size (which would
// break digest stability).
const defaultHorizonFanout = 2

// normalize validates the partition against a space with maxBits
// shardable decisions and applies the fan-out default.
func (p Partition) normalize(maxBits int) (Partition, error) {
	switch {
	case p.ShardBits < 0:
		return p, fmt.Errorf("shard: negative shard bits")
	case p.ShardBits > maxBits:
		return p, fmt.Errorf("shard: %d shard bits but only %d shardable drop nodes", p.ShardBits, maxBits)
	case p.HorizonFanout < 0:
		return p, fmt.Errorf("shard: HorizonFanout must be >= 0 (got %d); 0 means the default", p.HorizonFanout)
	case p.HorizonFanout > MaxContFanout:
		return p, fmt.Errorf("shard: HorizonFanout %d exceeds the maximum %d", p.HorizonFanout, MaxContFanout)
	}
	if p.DepthHorizon == 0 {
		p.HorizonFanout = 0
	} else if p.HorizonFanout == 0 {
		p.HorizonFanout = defaultHorizonFanout
	}
	return p, nil
}

// Task is one queue entry: the item plus its depth-dimension context.
type Task struct {
	Item Item
	// Target is the absolute processed-event count of the item's next
	// depth horizon (0 = run to completion). Absolute, so a crashed and
	// resumed run suspends on exactly the same event boundary.
	Target uint64
	// Parent is the suspended ancestor frontier a continuation item
	// slice-resumes from (nil for a plain bit shard). Siblings share it.
	Parent []byte

	origin int // worker whose Take produced the task's parent; -1 for roots
}

// Queue is the partition state machine: the work items not yet run, the
// ones running, and the leaves collected so far. L is the leaf payload —
// a live report in process, a shipped snapshot in the coordinator; the
// queue never looks inside it. A Queue is not safe for concurrent use;
// each transport guards it with the lock it already holds.
//
// The discipline is a stack: Take returns the most recently added task,
// so children run before their parent's siblings (depth first) and the
// number of suspended frontiers alive at once grows with the depth of the
// continuation tree, not its width. "Front" below means next to be taken.
type Queue[L any] struct {
	part     Partition
	splitCap int
	queue    []*Task // the front is the end of the slice
	inflight map[*Task]struct{}
	leaves   []L

	// Steals counts tasks taken by a worker other than the one whose
	// split or suspension created them; Splits, Suspensions and Requeues
	// count the outcomes of the same name.
	Steals, Splits, Suspensions, Requeues int
}

// New builds the queue of a partition over a space with maxBits shardable
// decisions, holding the 2^ShardBits root items. splitBits caps how many
// decisions Split may pin in total; it is clamped to [ShardBits, maxBits].
func New[L any](p Partition, maxBits, splitBits int) (*Queue[L], error) {
	p, err := p.normalize(maxBits)
	if err != nil {
		return nil, err
	}
	q := &Queue[L]{
		part:     p,
		splitCap: min(max(splitBits, p.ShardBits), maxBits),
		inflight: make(map[*Task]struct{}),
	}
	for bits := uint64(0); bits < 1<<uint(p.ShardBits); bits++ {
		q.queue = append(q.queue, &Task{
			Item:   Item{Depth: p.ShardBits, Bits: bits},
			Target: p.DepthHorizon,
			origin: -1,
		})
	}
	return q, nil
}

// Take moves the front task in flight and returns it, or nil when nothing
// is queued. worker identifies the taker for steal counting only.
func (q *Queue[L]) Take(worker int) *Task {
	n := len(q.queue)
	if n == 0 {
		return nil
	}
	t := q.queue[n-1]
	q.queue = q.queue[:n-1]
	q.inflight[t] = struct{}{}
	if t.origin >= 0 && t.origin != worker {
		q.Steals++
	}
	t.origin = worker
	return t
}

// finish takes t out of flight. Every outcome below goes through it, and
// reports false — changing nothing — for a task that is not in flight
// (already finished, or abandoned), so a late or duplicate report from a
// transport cannot corrupt the cover.
func (q *Queue[L]) finish(t *Task) bool {
	if _, ok := q.inflight[t]; !ok {
		return false
	}
	delete(q.inflight, t)
	return true
}

// Leaf records a completed item: its sub-space is covered by this leaf.
func (q *Queue[L]) Leaf(t *Task, leaf L) bool {
	if !q.finish(t) {
		return false
	}
	q.leaves = append(q.leaves, leaf)
	return true
}

// Splittable reports whether Split would subdivide the task: there must
// be a decision left to pin under the cap, and the task must not be a
// continuation item — its pinned decisions already materialised inside
// the parent frontier, so only the depth dimension subdivides it further.
func (q *Queue[L]) Splittable(t *Task) bool {
	return t.Item.Depth < q.splitCap && len(t.Item.Cont) == 0
}

// Split handles a straggler that was stopped mid-run: the partial run is
// discarded (its states are not a sound cover of the sub-space) and the
// item is replaced by its two halves, one more decision pinned. An item
// that is not Splittable goes back to the front whole instead; split says
// which happened.
func (q *Queue[L]) Split(t *Task) (split, ok bool) {
	if !q.Splittable(t) {
		return false, q.Requeue(t)
	}
	if !q.finish(t) {
		return false, false
	}
	q.Splits++
	for b := uint64(0); b <= 1; b++ {
		q.queue = append(q.queue, &Task{
			Item:   Item{Depth: t.Item.Depth + 1, Bits: t.Item.Bits | b<<uint(t.Item.Depth)},
			Target: t.Target,
			origin: t.origin,
		})
	}
	return true, true
}

// Suspend handles a run that hit its depth horizon after events processed
// events with live work remaining: the frontier fans out into continuation
// items — the partition's fan-out clamped to the units the frontier can be
// sliced into (COB: its dscenarios; COW/SDS: 1, a chain), never the pool
// or fleet size — each targeting the next horizon. The suspended item is
// done; its sub-space is exactly covered by its children. A suspension
// the partition never asked for, or one with nothing to resume, would
// leave a hole in the cover: the item is requeued instead and fanout is 0.
func (q *Queue[L]) Suspend(t *Task, units int, events uint64, frontier []byte) (fanout int, ok bool) {
	if q.part.DepthHorizon == 0 || units < 1 || len(frontier) == 0 {
		return 0, q.Requeue(t)
	}
	if !q.finish(t) {
		return 0, false
	}
	q.Suspensions++
	fanout = min(q.part.HorizonFanout, units)
	for seg := 0; seg < fanout; seg++ {
		cont := make([]ContStep, len(t.Item.Cont)+1)
		copy(cont, t.Item.Cont)
		cont[len(t.Item.Cont)] = ContStep{Seg: seg, Of: fanout}
		q.queue = append(q.queue, &Task{
			Item:   Item{Depth: t.Item.Depth, Bits: t.Item.Bits, Cont: cont},
			Target: events + q.part.DepthHorizon,
			Parent: frontier,
			origin: t.origin,
		})
	}
	return fanout, true
}

// Requeue returns a task whose run was lost — failed, expired, stopped
// for a reason other than a split — to the front: it is the oldest work
// there is, and its execution is deterministic, so running it again
// yields the identical outcome.
func (q *Queue[L]) Requeue(t *Task) bool {
	if !q.finish(t) {
		return false
	}
	q.Requeues++
	q.queue = append(q.queue, t)
	return true
}

// Drop abandons one task for good; the run can no longer cover the space.
func (q *Queue[L]) Drop(t *Task) bool { return q.finish(t) }

// Abandon drops every queued and in-flight task, keeping the leaves.
func (q *Queue[L]) Abandon() {
	q.queue = nil
	clear(q.inflight)
}

// Queued is the number of tasks waiting to be taken.
func (q *Queue[L]) Queued() int { return len(q.queue) }

// InFlight is the number of tasks taken and not yet finished.
func (q *Queue[L]) InFlight() int { return len(q.inflight) }

// Done reports that nothing is queued or in flight: Leaves is final.
func (q *Queue[L]) Done() bool { return len(q.queue) == 0 && len(q.inflight) == 0 }

// Leaves returns the leaves collected so far, in completion order.
func (q *Queue[L]) Leaves() []L { return q.leaves }

// Frontiers counts the distinct suspended frontiers still referenced by a
// queued or in-flight task — what a transport holds in memory for
// continuation items. A frontier is released by dropping its last task.
func (q *Queue[L]) Frontiers() int {
	var seen map[*byte]struct{} // allocated on the first frontier: most queues hold none
	see := func(t *Task) {
		if len(t.Parent) == 0 {
			return
		}
		if seen == nil {
			seen = make(map[*byte]struct{})
		}
		seen[&t.Parent[0]] = struct{}{}
	}
	for _, t := range q.queue {
		see(t)
	}
	for t := range q.inflight {
		see(t)
	}
	return len(seen)
}

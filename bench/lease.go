package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"sde"
)

// leaseRun is one executed work lease.
type leaseRun struct {
	wall  float64
	bytes int // snapshot shipped: a leaf, or a suspended frontier
}

// harvested is what executing a partition lease by lease produced.
type harvested struct {
	leaves []sde.ShardLeaf
	runs   []leaseRun
}

// harvest executes the partition of a scenario the way the exploration
// service does, lease by lease through sde.RunShardLease: the initial
// items are the 2^bits bit shards, a lease that suspends at the depth
// horizon fans its frontier out into continuation items, and every
// finished lease yields a leaf snapshot. workers goroutines drain the
// queue; with one worker and a tracer every lease gets a span.
func harvest(s sde.Scenario, part partition, dir string, workers int, tr *tracer) (*harvested, error) {
	type item struct {
		it     sde.ShardItem
		target uint64
		parent []byte
	}
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		queue   []item
		pending int
		out     harvested
		errs    []error
	)
	for bits := uint64(0); bits < 1<<uint(part.bits); bits++ {
		queue = append(queue, item{it: sde.ShardItem{Depth: part.bits, Bits: bits}, target: part.horizon})
	}
	pending = len(queue)
	fanout := part.fanout
	if part.horizon != 0 && fanout == 0 {
		fanout = 2
	}
	work := func() {
		for {
			mu.Lock()
			for len(queue) == 0 && pending > 0 {
				cond.Wait()
			}
			if len(queue) == 0 {
				mu.Unlock()
				return
			}
			cur := queue[0]
			queue = queue[1:]
			mu.Unlock()

			var end func()
			if workers == 1 {
				end = tr.begin("sde.RunShardLease")
			}
			start := time.Now()
			res, err := sde.RunShardLease(s, cur.it, sde.LeaseOptions{
				CheckpointDir: filepath.Join(dir, cur.it.Dir()),
				EventTarget:   cur.target,
				Continuation:  cur.parent,
			})
			wall := time.Since(start).Seconds()
			if end != nil {
				end()
			}

			mu.Lock()
			switch {
			case err != nil:
				errs = append(errs, fmt.Errorf("lease %s: %w", cur.it.Label(), err))
			case res.Stopped:
				errs = append(errs, fmt.Errorf("lease %s stopped without a progress hook", cur.it.Label()))
			default:
				out.runs = append(out.runs, leaseRun{wall: wall, bytes: len(res.Snapshot)})
				if !res.Suspended {
					out.leaves = append(out.leaves, sde.ShardLeaf{Item: cur.it, Snapshot: res.Snapshot})
					break
				}
				f := fanout
				if f > res.Units {
					f = res.Units
				}
				if f < 1 {
					f = 1
				}
				for seg := 0; seg < f; seg++ {
					child := cur.it
					child.Cont = append(append([]sde.ContStep(nil), cur.it.Cont...), sde.ContStep{Seg: seg, Of: f})
					queue = append(queue, item{it: child, target: res.Events + part.horizon, parent: res.Snapshot})
					pending++
				}
			}
			pending--
			cond.Broadcast()
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return &out, nil
}

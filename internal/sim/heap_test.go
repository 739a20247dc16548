package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// boxedHeap is the event heap as it was: the same order, moved through
// container/heap's interface.
type boxedHeap []heapEntry

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return entryHeap(h).less(i, j) }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(heapEntry)) }
func (h *boxedHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestEntryHeapDifferential pushes and pops one seeded sequence through
// entryHeap and through container/heap. Times and state ids are drawn from
// small ranges, so most entries tie with others on (time, stateID) — the
// engine's stale duplicates — and only the entry's seq tells them apart:
// every pop must return the very same entry, and the arrays must stay equal,
// which is what keeps the engine's pop sequence the one container/heap gave.
func TestEntryHeapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var h entryHeap
	var ref boxedHeap
	pops, ties := 0, 0
	filling := true // the heap breathes between empty and ~300 entries, so small keys pile up
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || len(ref) >= 300 {
			filling = len(ref) == 0
		}
		if len(ref) == 0 || (rng.Intn(5) < 4) == filling {
			e := heapEntry{time: uint64(rng.Intn(4)), stateID: uint64(rng.Intn(8)), seq: uint64(step)}
			h.push(e)
			heap.Push(&ref, e)
		} else {
			got, want := h.pop(), heap.Pop(&ref).(heapEntry)
			if got != want {
				t.Fatalf("step %d: pop = %+v, container/heap pops %+v", step, got, want)
			}
			pops++
			if len(ref) > 0 && ref[0].time == want.time && ref[0].stateID == want.stateID {
				ties++
			}
		}
		if len(h) != len(ref) {
			t.Fatalf("step %d: %d entries, container/heap holds %d", step, len(h), len(ref))
		}
		for i := range h {
			if h[i] != ref[i] {
				t.Fatalf("step %d: slot %d holds %+v, container/heap's array %+v", step, i, h[i], ref[i])
			}
		}
	}
	if pops < 5000 || ties < pops/2 {
		t.Errorf("%d pops, %d of them followed by an equal (time, stateID): the sequence must be dense in ties", pops, ties)
	}
}

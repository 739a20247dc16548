package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func newQueue(t *testing.T, p Partition, maxBits int) *Queue[Item] {
	t.Helper()
	q, err := New[Item](p, maxBits)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// labels drains the queue in Take order without finishing anything.
func labels(q *Queue[Item]) []string {
	var out []string
	for t := q.Take(0); t != nil; t = q.Take(0) {
		out = append(out, t.Item.Label())
	}
	return out
}

func TestPartitionNormalisation(t *testing.T) {
	cases := []struct {
		name    string
		p       Partition
		maxBits int
		want    Partition
		err     string
	}{
		{"zero value", Partition{}, 2, Partition{}, ""},
		{"fanout defaults to 2 with a horizon", Partition{DepthHorizon: 10}, 0,
			Partition{DepthHorizon: 10, HorizonFanout: 2}, ""},
		{"fanout ignored without a horizon", Partition{HorizonFanout: 5}, 0, Partition{}, ""},
		{"explicit fanout kept", Partition{ShardBits: 1, DepthHorizon: 10, HorizonFanout: 3}, 1,
			Partition{ShardBits: 1, DepthHorizon: 10, HorizonFanout: 3}, ""},
		{"negative bits", Partition{ShardBits: -1}, 2, Partition{}, "negative shard bits"},
		{"too many bits", Partition{ShardBits: 3}, 2, Partition{}, "only 2 shardable"},
		{"negative fanout", Partition{DepthHorizon: 1, HorizonFanout: -1}, 0, Partition{}, "HorizonFanout"},
		{"oversized fanout", Partition{DepthHorizon: 1, HorizonFanout: MaxContFanout + 1}, 0, Partition{}, "exceeds"},
	}
	for _, c := range cases {
		got, err := c.p.normalize(c.maxBits)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("%s: normalize = %+v, %v; want %+v", c.name, got, err, c.want)
		}
	}
}

func TestRootsAndTakeOrder(t *testing.T) {
	q := newQueue(t, Partition{ShardBits: 2, DepthHorizon: 7}, 3)
	if q.Queued() != 4 || q.InFlight() != 0 || q.Done() {
		t.Fatalf("fresh queue: queued %d, in flight %d, done %v", q.Queued(), q.InFlight(), q.Done())
	}
	first := q.Take(0)
	if first.Target != 7 || first.Parent != nil {
		t.Errorf("root task target %d parent %v, want the first horizon and no frontier", first.Target, first.Parent)
	}
	q.Requeue(first)
	if got, want := labels(q), []string{"11/2", "10/2", "01/2", "00/2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("take order = %v, want %v (a stack over the enumerated roots)", got, want)
	}
	if q.Take(0) != nil {
		t.Error("Take on an empty queue returned a task")
	}
}

// TestFinishRules is the table over what each outcome puts back.
func TestFinishRules(t *testing.T) {
	cont := func(steps ...ContStep) []ContStep { return steps }
	cases := []struct {
		name      string
		part      Partition
		maxBits   int
		item      Item   // the item in flight (injected in place of the single root)
		target    uint64 // its horizon target
		finish    func(q *Queue[Item], t *Task) bool
		wantFront []string // labels in Take order afterwards
		wantTgt   uint64   // target of every task in wantFront
		counters  [2]int   // suspensions, requeues
		leaves    int
	}{
		{name: "leaf", maxBits: 2, item: Item{},
			finish:    func(q *Queue[Item], t *Task) bool { return q.Leaf(t, t.Item) },
			wantFront: nil, leaves: 1},
		{name: "requeued continuation keeps its target", part: Partition{DepthHorizon: 5}, maxBits: 2,
			item: Item{Cont: cont(ContStep{0, 2})}, target: 10,
			finish:    func(q *Queue[Item], t *Task) bool { return q.Requeue(t) },
			wantFront: []string{"root~0/2"}, wantTgt: 10, counters: [2]int{0, 1}},
		{name: "suspension fans out at events + horizon", part: Partition{DepthHorizon: 50, HorizonFanout: 3}, maxBits: 1,
			item: Item{Depth: 1, Bits: 1}, target: 50,
			finish: func(q *Queue[Item], t *Task) bool {
				f, ok := q.Suspend(t, 8, 53, []byte("frontier"))
				return f == 3 && ok
			},
			wantFront: []string{"1/1~2/3", "1/1~1/3", "1/1~0/3"}, wantTgt: 103, counters: [2]int{1, 0}},
		{name: "fan-out clamps to the frontier's units", part: Partition{DepthHorizon: 50, HorizonFanout: 4}, maxBits: 0,
			item: Item{Cont: cont(ContStep{1, 2})}, target: 100,
			finish: func(q *Queue[Item], t *Task) bool {
				f, ok := q.Suspend(t, 2, 100, []byte("frontier"))
				return f == 2 && ok
			},
			wantFront: []string{"root~1/2~1/2", "root~1/2~0/2"}, wantTgt: 150, counters: [2]int{1, 0}},
		{name: "single-unit frontier continues as a chain", part: Partition{DepthHorizon: 50}, maxBits: 0,
			item: Item{}, target: 50,
			finish: func(q *Queue[Item], t *Task) bool {
				f, ok := q.Suspend(t, 1, 50, []byte("frontier"))
				return f == 1 && ok
			},
			wantFront: []string{"root~0/1"}, wantTgt: 100, counters: [2]int{1, 0}},
		{name: "suspension without units requeues", part: Partition{DepthHorizon: 50}, maxBits: 0,
			item: Item{}, target: 50,
			finish: func(q *Queue[Item], t *Task) bool {
				f, ok := q.Suspend(t, 0, 50, []byte("frontier"))
				return f == 0 && ok
			},
			wantFront: []string{"root"}, wantTgt: 50, counters: [2]int{0, 1}},
		{name: "suspension nobody asked for requeues", maxBits: 0,
			item: Item{},
			finish: func(q *Queue[Item], t *Task) bool {
				f, ok := q.Suspend(t, 4, 50, []byte("frontier"))
				return f == 0 && ok
			},
			wantFront: []string{"root"}, counters: [2]int{0, 1}},
		{name: "drop leaves nothing", maxBits: 0, item: Item{},
			finish:    func(q *Queue[Item], t *Task) bool { return q.Drop(t) },
			wantFront: nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			q := newQueue(t, c.part, c.maxBits)
			task := q.Take(0)
			task.Item, task.Target = c.item, c.target
			if !c.finish(q, task) {
				t.Fatal("finish reported the wrong outcome")
			}
			if q.InFlight() != 0 {
				t.Errorf("%d tasks still in flight", q.InFlight())
			}
			if c.finish(q, task) {
				t.Error("finishing a task twice was accepted")
			}
			if got := [2]int{q.Suspensions, q.Requeues}; got != c.counters {
				t.Errorf("suspensions/requeues = %v, want %v", got, c.counters)
			}
			if len(q.Leaves()) != c.leaves {
				t.Errorf("%d leaves, want %d", len(q.Leaves()), c.leaves)
			}
			var got []string
			for nt := q.Take(0); nt != nil; nt = q.Take(0) {
				got = append(got, nt.Item.Label())
				if nt.Target != c.wantTgt {
					t.Errorf("%s target = %d, want %d", nt.Item.Label(), nt.Target, c.wantTgt)
				}
				if len(nt.Item.Cont) > len(c.item.Cont) && string(nt.Parent) != "frontier" {
					t.Errorf("%s does not carry the suspended frontier", nt.Item.Label())
				}
			}
			if !reflect.DeepEqual(got, c.wantFront) {
				t.Errorf("queue afterwards = %v, want %v", got, c.wantFront)
			}
		})
	}
}

func TestRequeueLandsAtTheFront(t *testing.T) {
	q := newQueue(t, Partition{ShardBits: 2}, 2)
	a, b := q.Take(0), q.Take(0) // 11/2, 10/2
	q.Requeue(a)
	if next := q.Take(0); next != a {
		t.Errorf("after a requeue Take returned %s, want the requeued %s", next.Item.Label(), a.Item.Label())
	}
	q.Requeue(b)
	q.Requeue(a)
	if got, want := labels(q), []string{"11/2", "10/2", "01/2", "00/2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("take order = %v, want %v", got, want)
	}
}

func TestDoneNeedsQueueAndFlightEmpty(t *testing.T) {
	q := newQueue(t, Partition{ShardBits: 1}, 1)
	a, b := q.Take(0), q.Take(0)
	if q.Done() {
		t.Error("done with two tasks in flight")
	}
	q.Leaf(a, a.Item)
	if q.Done() {
		t.Error("done with one task in flight")
	}
	q.Requeue(b)
	if q.Done() {
		t.Error("done with one task queued")
	}
	q.Leaf(q.Take(0), b.Item)
	if !q.Done() {
		t.Error("not done with nothing queued or in flight")
	}
	if q.Leaf(a, a.Item) || q.Requeue(b) || len(q.Leaves()) != 2 {
		t.Error("a late report on a finished task changed the queue")
	}
}

func TestStealsAndFrontiers(t *testing.T) {
	q := newQueue(t, Partition{DepthHorizon: 10}, 0)
	root := q.Take(3)
	if q.Steals != 0 {
		t.Error("taking a root counted as a steal")
	}
	q.Suspend(root, 2, 10, []byte("f0"))
	if q.Frontiers() != 1 {
		t.Errorf("frontiers = %d, want the one just stored", q.Frontiers())
	}
	mine, theirs := q.Take(3), q.Take(4)
	if q.Steals != 1 {
		t.Errorf("steals = %d, want 1 (worker 4 ran worker 3's child)", q.Steals)
	}
	q.Leaf(mine, mine.Item)
	if q.Frontiers() != 1 {
		t.Error("frontier released while a sibling still needs it")
	}
	q.Suspend(theirs, 1, 20, []byte("f1"))
	if q.Frontiers() != 1 {
		t.Errorf("frontiers = %d, want only the new generation's", q.Frontiers())
	}
	q.Abandon()
	if q.Frontiers() != 0 || !q.Done() || len(q.Leaves()) != 1 {
		t.Error("Abandon did not drop the tasks, or dropped the leaves")
	}
}

// TestRandomWalkAlwaysCovers feeds the queue arbitrary outcomes — leaf,
// suspend with random units, requeue — from several interleaved
// workers and requires the collected leaves to be an exact cover of the
// space every time, with every take accounted for by exactly one outcome.
func TestRandomWalkAlwaysCovers(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxBits := rng.Intn(5)
		p := Partition{ShardBits: rng.Intn(maxBits + 1)}
		if rng.Intn(3) > 0 {
			p.DepthHorizon = uint64(1 + rng.Intn(100))
			p.HorizonFanout = rng.Intn(5)
		}
		q := newQueue(t, p, maxBits)
		var flight []*Task
		takes, events := 0, uint64(0)
		for steps := 0; !q.Done(); steps++ {
			if steps > 100000 {
				t.Fatalf("seed %d: walk does not terminate", seed)
			}
			if len(flight) < 3 && q.Queued() > 0 && (len(flight) == 0 || rng.Intn(2) == 0) {
				flight = append(flight, q.Take(rng.Intn(3)))
				takes++
				continue
			}
			i := rng.Intn(len(flight))
			task := flight[i]
			flight = append(flight[:i], flight[i+1:]...)
			// Deep items finish: the walk must terminate.
			roll := rng.Intn(10)
			if len(task.Item.Cont) >= 4 || steps > 2000 {
				roll = 0
			}
			switch {
			case roll < 5:
				q.Leaf(task, task.Item)
			case roll < 9:
				events += uint64(rng.Intn(50))
				q.Suspend(task, rng.Intn(6), events, []byte{1})
			default:
				q.Requeue(task)
			}
		}
		if err := VerifyCover(q.Leaves()); err != nil {
			t.Fatalf("seed %d (%+v, maxBits %d): %v\nleaves: %s", seed, p, maxBits, err, fmt.Sprint(q.Leaves()))
		}
		if got := len(q.Leaves()) + q.Suspensions + q.Requeues; got != takes {
			t.Fatalf("seed %d: %d takes but %d outcomes", seed, takes, got)
		}
	}
}

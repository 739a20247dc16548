package core

import (
	"fmt"
	"math/big"
	"math/bits"
	"slices"
)

// dstate is the grouping unit of §III-B: a set of pairwise conflict-free
// entries, at least one per node, possibly several per node. All states of
// one node within a dstate share the same communication history, so a
// dstate compactly represents the cartesian product of its per-node
// buckets as dscenarios. An entry is an execution state for COB and COW
// and a virtual state for SDS (§III-C).
type dstate[E comparable] struct {
	id     int   // position in its mapper's dstate list
	byNode [][]E // indexed by node id
}

func (d *dstate[E]) add(node int, e E) { d.byNode[node] = append(d.byNode[node], e) }

// remove takes e out of its node's bucket in place, keeping the order of
// the rest. No other holder views a bucket: a split's buckets and a
// restore's are sub-slices of one block, each capped at its own length, so
// the shift stays inside the bucket's own slots.
func (d *dstate[E]) remove(node int, e E) bool {
	if i := slices.Index(d.byNode[node], e); i >= 0 {
		d.byNode[node] = slices.Delete(d.byNode[node], i, i+1)
		return true
	}
	return false
}

// dtable is a mapper's list of dstates over entries E with what all three
// mappers do alike on it: registration, the split of a dstate on a send
// with rivals, ScenarioFor's pick, the dscenario count and enumeration, the
// bucket invariants, and the buckets' snapshot and restore. COW embeds it
// over execution states (and COB through COW), SDS over virtual states.
// SDS deletes no dstate and COW neither, so a dstate's id is its position.
type dtable[S StateHandle[S], E comparable] struct {
	k         int
	dstates   []*dstate[E]
	nRegister int
	// actual projects an entry to its execution state. Only cold paths
	// call it: ScenarioFor, explosion, invariants and snapshots.
	actual func(E) S
}

// push appends an empty dstate to t and returns it.
func (t *dtable[S, E]) push() *dstate[E] {
	d := &dstate[E]{id: len(t.dstates), byNode: make([][]E, t.k)}
	t.dstates = append(t.dstates, d)
	return d
}

// registered reports whether every node has registered its initial state.
func (t *dtable[S, E]) registered() bool { return t.nRegister == t.k }

// register files e, the entry of the initial state s, in the first dstate
// and returns that dstate.
func (t *dtable[S, E]) register(s S, e E) *dstate[E] {
	node := s.NodeID()
	if node < 0 || node >= t.k {
		panic(fmt.Sprintf("core: Register node %d out of range", node))
	}
	d := t.dstates[0]
	if len(d.byNode[node]) != 0 {
		panic(fmt.Sprintf("core: Register node %d twice", node))
	}
	d.add(node, e)
	t.nRegister++
	return d
}

// split moves e, the sender's entry on node sn, out of d into a fresh
// dstate and returns it with the number of entries of d's other nodes. The
// fresh dstate's buckets are carved from one block, the sender's first,
// each capped at its own length so a later add reallocates that bucket
// alone. Every other bucket has as many slots as d's, for the caller to
// fill from d's — COW with forks, SDS with virtual copies — while the
// direct rivals stay behind in d.
func (t *dtable[S, E]) split(d *dstate[E], sn int, e E) (*dstate[E], int) {
	d.remove(sn, e)
	total := 0
	for node, bucket := range d.byNode {
		if node != sn {
			total += len(bucket)
		}
	}
	fresh := t.push()
	block := make([]E, 1+total)
	block[0] = e
	fresh.byNode[sn] = block[:1:1]
	off := 1
	for node, bucket := range d.byNode {
		if node != sn {
			n := len(bucket)
			fresh.byNode[node] = block[off : off+n : off+n]
			off += n
		}
	}
	return fresh, total
}

// scenarioFor returns s plus the first state of every other node in d (all
// selections within a dstate are conflict-free).
func (t *dtable[S, E]) scenarioFor(d *dstate[E], s S) []S {
	out := make([]S, t.k)
	for node, bucket := range d.byNode {
		if node == s.NodeID() {
			out[node] = s
		} else {
			out[node] = t.actual(bucket[0])
		}
	}
	return out
}

// NumGroups implements Mapper: the dstates (COB's are its dscenarios).
func (t *dtable[S, E]) NumGroups() int { return len(t.dstates) }

// DScenarioCount implements Mapper: dstates represent disjoint dscenario
// sets, each the cartesian product of its per-node buckets. The count is
// exact: kept in uint64 arithmetic, and in big.Int only for a product that
// does not fit and for the carries of the sum.
func (t *dtable[S, E]) DScenarioCount() *big.Int {
	var sum, carries uint64
	large := new(big.Int) // the sum of the products past uint64
	for _, d := range t.dstates {
		p := uint64(1)
		for _, bucket := range d.byNode {
			hi, lo := bits.Mul64(p, uint64(len(bucket)))
			if p = lo; hi != 0 {
				n := big.NewInt(1)
				for _, bucket := range d.byNode {
					n.Mul(n, big.NewInt(int64(len(bucket))))
				}
				large.Add(large, n)
				p = 0
				break
			}
		}
		var carry uint64
		sum, carry = bits.Add64(sum, p, 0)
		carries += carry
	}
	total := new(big.Int).Lsh(new(big.Int).SetUint64(carries), 64)
	return total.Add(total.Add(total, new(big.Int).SetUint64(sum)), large)
}

// Explode implements Mapper: the per-node cartesian product of every
// dstate (§IV-C "deliberate state explosion").
func (t *dtable[S, E]) Explode(limit int) [][]S {
	var out [][]S
	t.ExplodeFunc(limit, func(sc []S) bool {
		out = append(out, sc)
		return true
	})
	return out
}

// ExplodeFunc implements Mapper. Each dstate's buckets are projected to
// states once, into buffers reused across dstates, so a dscenario costs the
// one slice handed to fn.
func (t *dtable[S, E]) ExplodeFunc(limit int, fn func([]S) bool) {
	byNode := make([][]S, t.k)
	pick := make([]int, t.k) // an odometer over the buckets, the last node fastest
	var states []S
	emitted := 0
	for _, d := range t.dstates {
		states = states[:0]
		for _, bucket := range d.byNode {
			for _, e := range bucket {
				states = append(states, t.actual(e))
			}
		}
		off := 0
		for node, bucket := range d.byNode {
			byNode[node] = states[off : off+len(bucket)]
			off += len(bucket)
		}
		for i := 0; i >= 0; {
			sc := make([]S, t.k)
			for node, p := range pick {
				sc[node] = byNode[node][p]
			}
			if emitted++; !fn(sc) || limit > 0 && emitted >= limit {
				return
			}
			// Advance the odometer; it wraps to all zero after the last.
			for i = t.k - 1; i >= 0; i-- {
				if pick[i]++; pick[i] < len(byNode[i]) {
					break
				}
				pick[i] = 0
			}
		}
	}
}

// checkBuckets checks what every mapper's dstates hold — registration is
// complete; every dstate's id is its position and it has a bucket per node,
// none empty; every entry's state is of its bucket's node; and the states
// of one bucket share their history (conflict-freedom, §II-B) — and hands
// every entry to entry, which checks the mapper's own bookkeeping first.
// name prefixes the errors.
func (t *dtable[S, E]) checkBuckets(name string, entry func(d *dstate[E], e E) error) error {
	if !t.registered() {
		return fmt.Errorf("core: %s: registration incomplete (%d of %d)", name, t.nRegister, t.k)
	}
	for di, d := range t.dstates {
		if d.id != di {
			return fmt.Errorf("core: %s: dstate %d has id %d", name, di, d.id)
		}
		if len(d.byNode) != t.k {
			return fmt.Errorf("core: %s: dstate %d has %d nodes, want %d", name, di, len(d.byNode), t.k)
		}
		for node, bucket := range d.byNode {
			if len(bucket) == 0 {
				return fmt.Errorf("core: %s: dstate %d has no state for node %d", name, di, node)
			}
			for _, e := range bucket {
				if err := entry(d, e); err != nil {
					return err
				}
				s, first := t.actual(e), t.actual(bucket[0])
				if s.NodeID() != node {
					return fmt.Errorf("core: %s: dstate %d bucket %d holds state of node %d",
						name, di, node, s.NodeID())
				}
				if s.HistoryHash() != first.HistoryHash() {
					return fmt.Errorf("core: %s: dstate %d node %d holds conflicting states %d and %d",
						name, di, node, first.ID(), s.ID())
				}
			}
		}
	}
	return nil
}

// image returns k and the dstates as a snapshot holds them: per dstate,
// per node, the state id of every entry of its bucket. The buckets are
// carved, each capped at its own length, from one block of ids, and the
// per-node lists from one block of buckets.
func (t *dtable[S, E]) image() (int, [][][]uint64) {
	n := 0
	for _, d := range t.dstates {
		for _, bucket := range d.byNode {
			n += len(bucket)
		}
	}
	ids := make([]uint64, n)
	out := make([][][]uint64, len(t.dstates))
	buckets := make([][]uint64, len(t.dstates)*t.k)
	for i, d := range t.dstates {
		ds := buckets[i*t.k : (i+1)*t.k : (i+1)*t.k]
		for node, bucket := range d.byNode {
			ds[node] = ids[:len(bucket):len(bucket)]
			for j, e := range bucket {
				ds[node][j] = t.actual(e).ID()
			}
			ids = ids[len(bucket):]
		}
		out[i] = ds
	}
	return t.k, out
}

// restoreBuckets fills t, empty, with the dstates of a snapshot: per dstate, per
// node, an ordered bucket of state ids. ids lists, ascending and distinct,
// the ids of states, the restored states; entry makes the entry of
// states[j] in d, refusing one the mapper cannot place there. Every bucket
// must hold an entry, every id must be one of ids, of a state of its
// bucket's node, and the states of a bucket must share their history
// (conflict-freedom, §II-B) — each state's history is hashed once, however
// many buckets it is in. The buckets are sub-slices of one block, each
// capped at its own length.
func (t *dtable[S, E]) restoreBuckets(k int, dstates [][][]uint64, ids []uint64, states []S,
	entry func(d *dstate[E], j int) (E, error)) error {
	if len(dstates) == 0 {
		return fmt.Errorf("core: mapper snapshot with no dstates")
	}
	t.k, t.nRegister = k, k
	t.dstates = make([]*dstate[E], 0, len(dstates))
	block := make([]E, countIDs(dstates))
	// hist[j] is states[j]'s history hash where hashed[j].
	hist := make([]uint64, len(states))
	hashed := make([]bool, len(states))
	for di, src := range dstates {
		if len(src) != k {
			return fmt.Errorf("core: dstate %d with %d nodes, want %d", di, len(src), k)
		}
		d := t.push()
		for node, bucketIDs := range src {
			if len(bucketIDs) == 0 {
				return fmt.Errorf("core: dstate %d has no states for node %d", di, node)
			}
			bucket := block[:len(bucketIDs):len(bucketIDs)]
			block = block[len(bucketIDs):]
			var h0 uint64 // the history of the bucket's first state
			for i, id := range bucketIDs {
				j, ok := SearchIDs(ids, id)
				if !ok {
					return fmt.Errorf("core: state %d in dstate %d is not one of the snapshot's states", id, di)
				}
				s := states[j]
				if s.NodeID() != node {
					return fmt.Errorf("core: state %d is on node %d, bucket says %d", id, s.NodeID(), node)
				}
				if len(bucketIDs) > 1 {
					if !hashed[j] {
						hist[j], hashed[j] = s.HistoryHash(), true
					}
					if i == 0 {
						h0 = hist[j]
					} else if hist[j] != h0 {
						return fmt.Errorf("core: dstate %d node %d holds conflicting states %d and %d",
							di, node, bucketIDs[0], id)
					}
				}
				e, err := entry(d, j)
				if err != nil {
					return err
				}
				bucket[i] = e
			}
			d.byNode[node] = bucket
		}
	}
	return nil
}

// countIDs returns how many ids the buckets of a snapshot's dstates hold.
func countIDs(dstates [][][]uint64) int {
	n := 0
	for _, src := range dstates {
		for _, bucket := range src {
			n += len(bucket)
		}
	}
	return n
}

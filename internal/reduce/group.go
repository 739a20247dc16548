// Package reduce implements symmetry reduction for symmetric-topology
// exploration.
//
// It computes the automorphism group of a topology at load
// time (line reversal, grid rotations/reflections, mesh permutations) and
// prunes failure-decision branches whose outcome is a symmetric image of an
// assignment the exploration already covers, keeping only one representative
// per orbit. A witness map rewrites the reduced run's violations back to
// concrete node ids at the end, so reports stay concrete.
//
// Everything here is derived from the immutable scenario configuration —
// nothing is ever serialized, so the snapshot wire format is unchanged.
package reduce

import "sort"

// Topology is the minimal view of a network the group search needs. It is
// satisfied by sim.Topology (declared locally to avoid an import cycle:
// sim imports reduce).
type Topology interface {
	K() int
	Neighbors(n int) []int
}

// Perm is a permutation of node ids: p[i] is the image of node i.
type Perm []int

// Identity returns the identity permutation on k nodes.
func Identity(k int) Perm {
	p := make(Perm, k)
	for i := range p {
		p[i] = i
	}
	return p
}

// IsIdentity reports whether p fixes every node.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if v != i {
			return false
		}
	}
	return true
}

// Compose returns the permutation "p after q": (p∘q)(i) = p(q(i)).
func (p Perm) Compose(q Perm) Perm {
	r := make(Perm, len(p))
	for i := range r {
		r[i] = p[q[i]]
	}
	return r
}

// Inverse returns p⁻¹.
func (p Perm) Inverse() Perm {
	r := make(Perm, len(p))
	for i, v := range p {
		r[v] = i
	}
	return r
}

// Equal reports element-wise equality.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// key returns a comparable encoding of the permutation, for dedup maps.
// Node counts are far below 2^16 in practice.
func (p Perm) key() string {
	b := make([]byte, 2*len(p))
	for i, v := range p {
		b[2*i] = byte(v >> 8)
		b[2*i+1] = byte(v)
	}
	return string(b)
}

// Group is an explicitly enumerated permutation group. Perms always
// contains the identity; order is deterministic (sorted by image sequence)
// so every consumer iterates the group identically.
type Group struct {
	Perms []Perm
	// Truncated is set when the automorphism search hit its cap and fell
	// back to the trivial group. The trivial group is always sound — it
	// just reduces nothing — but callers may want to report the miss.
	Truncated bool
}

// Trivial returns the group containing only the identity on k nodes.
func Trivial(k int) *Group {
	return &Group{Perms: []Perm{Identity(k)}}
}

// Order returns the number of permutations in the group.
func (g *Group) Order() int { return len(g.Perms) }

// sortPerms orders permutations lexicographically by image sequence, with
// the identity first (the identity is lex-minimal only by accident of the
// topology, so we pin it explicitly for readability of dumps; the rest are
// lex-sorted).
func sortPerms(perms []Perm) []Perm {
	sort.Slice(perms, func(i, j int) bool {
		a, b := perms[i], perms[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return perms
}

// Search caps. Beyond maxAutomorphisms found automorphisms (a 7-node full
// mesh has 5040) or maxSearchSteps backtracking steps the search gives up
// and returns the trivial group: a partial, possibly non-closed set of
// automorphisms would break the orbit reasoning the pruning rule relies
// on, whereas the trivial group is always sound.
const (
	maxAutomorphisms = 6000
	maxSearchSteps   = 2_000_000
)

// Automorphisms computes the full automorphism group of the topology by
// backtracking search over candidate node images, pruning on degree and
// adjacency consistency. Node ids are assigned images in BFS order from
// node 0 so that the adjacency constraints bind as early as possible.
//
// For the topologies the engine ships this is exact and fast: a line gives
// the order-2 reversal group, a W×H grid gives the dihedral group D4
// (order 8) when W==H and the order-4 rectangle group otherwise, and a
// full mesh on k nodes gives all k! permutations up to the cap.
func Automorphisms(t Topology) *Group {
	k := t.K()
	if k <= 0 {
		return Trivial(0)
	}
	adj := make([]map[int]bool, k)
	deg := make([]int, k)
	for n := 0; n < k; n++ {
		nbrs := t.Neighbors(n)
		adj[n] = make(map[int]bool, len(nbrs))
		for _, m := range nbrs {
			adj[n][m] = true
		}
		deg[n] = len(nbrs)
	}

	// Visit order: BFS from node 0 (fall back to unvisited nodes for
	// disconnected topologies) so each newly placed node has a placed
	// neighbor whose adjacency constrains its image.
	order := make([]int, 0, k)
	seen := make([]bool, k)
	var bfs func(root int)
	bfs = func(root int) {
		queue := []int{root}
		seen[root] = true
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			order = append(order, n)
			for _, m := range t.Neighbors(n) {
				if !seen[m] {
					seen[m] = true
					queue = append(queue, m)
				}
			}
		}
	}
	for n := 0; n < k; n++ {
		if !seen[n] {
			bfs(n)
		}
	}

	img := make([]int, k) // img[n] = image of n, -1 unassigned
	used := make([]bool, k)
	for i := range img {
		img[i] = -1
	}
	var found []Perm
	steps := 0
	overflow := false

	var rec func(pos int)
	rec = func(pos int) {
		if overflow {
			return
		}
		steps++
		if steps > maxSearchSteps {
			overflow = true
			return
		}
		if pos == k {
			p := make(Perm, k)
			copy(p, img)
			found = append(found, p)
			if len(found) > maxAutomorphisms {
				overflow = true
			}
			return
		}
		n := order[pos]
		for cand := 0; cand < k; cand++ {
			if used[cand] || deg[cand] != deg[n] {
				continue
			}
			// Every already-placed neighbor of n must map to a
			// neighbor of cand, and every placed non-neighbor to a
			// non-neighbor (|adj| equality makes the two checks
			// symmetric; we check placed nodes directly).
			ok := true
			for _, prev := range order[:pos] {
				if adj[n][prev] != adj[cand][img[prev]] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			img[n] = cand
			used[cand] = true
			rec(pos + 1)
			img[n] = -1
			used[cand] = false
			if overflow {
				return
			}
		}
	}
	rec(0)

	if overflow {
		g := Trivial(k)
		g.Truncated = true
		return g
	}
	return &Group{Perms: sortPerms(found)}
}

// filter returns the subgroup of permutations satisfying keep. The result
// of filtering a closed group by any property that is preserved under
// composition and inverse (label equality, routing equivariance, setwise
// stabilization) is again a closed group.
func (g *Group) filter(keep func(Perm) bool) *Group {
	out := &Group{Truncated: g.Truncated}
	for _, p := range g.Perms {
		if keep(p) {
			out.Perms = append(out.Perms, p)
		}
	}
	if len(out.Perms) == 0 {
		// Cannot happen when g contains the identity, but stay safe.
		out.Perms = []Perm{Identity(len(g.Perms[0]))}
	}
	return out
}

// Stabilize returns the subgroup whose permutations preserve the given
// per-node labels: labels[p(n)] == labels[n] for every node. Scenarios
// with distinguished nodes (a flood source, a collect sink) declare those
// roles as labels; only automorphisms fixing the roles survive.
func (g *Group) Stabilize(labels []uint64) *Group {
	return g.filter(func(p Perm) bool {
		for n, v := range p {
			if labels[v] != labels[n] {
				return false
			}
		}
		return true
	})
}

// StabilizeRouting returns the subgroup equivariant with respect to a
// static next-hop routing table: hops[p(n)] == p(hops[n]) for every node,
// with p(-1) = -1 for off-route nodes. A grid's transpose symmetry, for
// example, does not survive a staircase route — the transposed route is a
// different staircase — so declaring the route honestly trivializes the
// group for routed workloads.
func (g *Group) StabilizeRouting(hops []int) *Group {
	return g.filter(func(p Perm) bool {
		for n, h := range hops {
			var want int
			if h < 0 {
				want = -1
			} else {
				want = p[h]
			}
			if hops[p[n]] != want {
				return false
			}
		}
		return true
	})
}

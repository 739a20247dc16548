package reduce_test

import (
	"testing"

	"sde/internal/expr"
	"sde/internal/reduce"
	"sde/internal/sim"
)

func dropDecisions(nodes []int) []reduce.Decision {
	ds := make([]reduce.Decision, 0, len(nodes))
	for _, n := range nodes {
		ds = append(ds, reduce.Decision{Kind: reduce.KindDrop, Node: n, Name: reduce.DecisionName(reduce.KindDrop, n)})
	}
	return ds
}

// simulateLineage walks the decision universe in the given order the way a
// COB exploration does — every lineage's full decided context is visible
// at each decision — forking where Decide declines and pinning where it
// prunes. It returns the surviving complete assignments.
func simulateLineage(r *reduce.Reducer, order []string, base map[string]uint64) []map[string]uint64 {
	root := make(map[string]uint64, len(base))
	for k, v := range base {
		root[k] = v
	}
	frontier := []map[string]uint64{root}
	clone := func(a map[string]uint64) map[string]uint64 {
		b := make(map[string]uint64, len(a)+1)
		for k, v := range a {
			b[k] = v
		}
		return b
	}
	for _, name := range order {
		next := make([]map[string]uint64, 0, 2*len(frontier))
		for _, a := range frontier {
			if v, ok := r.Decide(a, name); ok {
				b := clone(a)
				b[name] = v
				next = append(next, b)
			} else {
				b0, b1 := clone(a), clone(a)
				b0[name] = 0
				b1[name] = 1
				next = append(next, b0, b1)
			}
		}
		frontier = next
	}
	return frontier
}

// checkOrbitCoverage asserts that every complete assignment of the
// decision universe is a symmetric image of some survivor — the coverage
// guarantee the engine's violation replication relies on.
func checkOrbitCoverage(t *testing.T, g *reduce.Group, names []string, survivors []map[string]uint64) {
	t.Helper()
	covered := make(map[string]bool)
	enc := func(a map[string]uint64) string {
		b := make([]byte, len(names))
		for i, n := range names {
			b[i] = byte('0' + a[n])
		}
		return string(b)
	}
	for _, s := range survivors {
		for _, p := range g.Perms {
			img := make(map[string]uint64, len(s))
			for n, v := range s {
				img[reduce.RelabelName(n, p)] = v
			}
			covered[enc(img)] = true
		}
	}
	total := 1 << len(names)
	for i := 0; i < total; i++ {
		a := make(map[string]uint64, len(names))
		for j, n := range names {
			a[n] = uint64((i >> j) & 1)
		}
		if !covered[enc(a)] {
			t.Fatalf("assignment %s is not covered by any survivor orbit", enc(a))
		}
	}
}

// orbitCount computes the number of distinct orbits of complete
// assignments under the group — the information-theoretic floor for the
// number of surviving lineages.
func orbitCount(g *reduce.Group, names []string) int {
	seen := make(map[string]bool)
	orbits := 0
	enc := func(a map[string]uint64) string {
		b := make([]byte, len(names))
		for i, n := range names {
			b[i] = byte('0' + a[n])
		}
		return string(b)
	}
	total := 1 << len(names)
	for i := 0; i < total; i++ {
		a := make(map[string]uint64, len(names))
		for j, n := range names {
			a[n] = uint64((i >> j) & 1)
		}
		if seen[enc(a)] {
			continue
		}
		orbits++
		for _, p := range g.Perms {
			img := make(map[string]uint64, len(a))
			for n, v := range a {
				img[reduce.RelabelName(n, p)] = v
			}
			seen[enc(img)] = true
		}
	}
	return orbits
}

// TestDecideMeshSortsAssignments: on a full mesh with drops armed
// everywhere the group is the full symmetric group, so the surviving
// lineages are exactly the sorted assignments — one per failure count.
func TestDecideMeshSortsAssignments(t *testing.T) {
	topo := sim.NewFullMesh(5)
	nodes := []int{0, 1, 2, 3, 4}
	ds := dropDecisions(nodes)
	r := reduce.NewReducer(reduce.Automorphisms(topo), ds, nil)
	if got := r.Group().Order(); got != 120 {
		t.Fatalf("effective group order = %d, want 120", got)
	}
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	survivors := simulateLineage(r, names, nil)
	if len(survivors) != 6 {
		t.Errorf("mesh5: %d survivors, want 6 (one per failure count)", len(survivors))
	}
	checkOrbitCoverage(t, r.Group(), names, survivors)
}

// TestDecideGridCorners: drops on the four corners of a 3x3 grid under
// D4. The orbit count is 6; the prefix rule keeps 7 lineages (one lineage
// dead-ends with both extensions covered and is pinned to the no-failure
// side rather than killed — sound, slightly conservative).
func TestDecideGridCorners(t *testing.T) {
	topo := sim.NewGrid(3, 3)
	ds := dropDecisions([]int{0, 2, 6, 8})
	r := reduce.NewReducer(reduce.Automorphisms(topo), ds, nil)
	if got := r.Group().Order(); got != 8 {
		t.Fatalf("effective group order = %d, want 8", got)
	}
	names := []string{"drop_n0_r0", "drop_n2_r0", "drop_n6_r0", "drop_n8_r0"}
	survivors := simulateLineage(r, names, nil)
	if orbits := orbitCount(r.Group(), names); orbits != 6 {
		t.Fatalf("orbit count = %d, want 6", orbits)
	}
	if len(survivors) < 6 || len(survivors) > 8 {
		t.Errorf("corners: %d survivors, want 6..8 (6 orbits + pin-fallback slack)", len(survivors))
	}
	t.Logf("corners: %d survivors of 16 assignments (6 orbits)", len(survivors))
	checkOrbitCoverage(t, r.Group(), names, survivors)
}

// TestDecideGridTwoRings is the symmetric showcase for the layer: a 5x5
// grid with drops armed on the two D4-invariant rings around the center
// (edge-adjacent {7,11,13,17} and diagonal {6,8,16,18}), decided in the
// order flood delivery reaches them. 256 assignments fall into 51 orbits;
// the prefix rule must stay within a small factor of that floor for a
// ≥4x state reduction on such a flood to hold (256/64 = 4x).
func TestDecideGridTwoRings(t *testing.T) {
	topo := sim.NewGrid(5, 5)
	armed := []int{7, 11, 13, 17, 6, 8, 16, 18}
	ds := dropDecisions(armed)
	r := reduce.NewReducer(reduce.Automorphisms(topo), ds, nil)
	if got := r.Group().Order(); got != 8 {
		t.Fatalf("effective group order = %d, want 8", got)
	}
	// Delivery order: inner ring at t=2 in id order, then diagonal ring.
	order := []string{
		"drop_n7_r0", "drop_n11_r0", "drop_n13_r0", "drop_n17_r0",
		"drop_n6_r0", "drop_n8_r0", "drop_n16_r0", "drop_n18_r0",
	}
	orbits := orbitCount(r.Group(), order)
	if orbits != 51 {
		t.Fatalf("orbit count = %d, want 51", orbits)
	}
	survivors := simulateLineage(r, order, nil)
	t.Logf("two rings: %d survivors of 256 assignments (%d orbits)", len(survivors), orbits)
	if len(survivors) < orbits {
		t.Fatalf("%d survivors below the %d-orbit floor: coverage must be broken", len(survivors), orbits)
	}
	if len(survivors) > 64 {
		t.Errorf("two rings: %d survivors exceeds 64 (bench needs 256/survivors >= 4x)", len(survivors))
	}
	checkOrbitCoverage(t, r.Group(), order, survivors)
}

// TestDecideAsymmetricArmSetIsInert: arming a non-symmetric site set
// filters the group down to whatever maps the set onto itself; a fully
// asymmetric set leaves only the identity and Decide never prunes.
func TestDecideAsymmetricArmSetIsInert(t *testing.T) {
	topo := sim.NewGrid(3, 3)
	// {0, 1}: corner + edge-mid; no grid automorphism maps this set onto
	// itself except... the vertical mirror maps 0->2, the one fixing 1 is
	// the vertical axis mirror (0<->2), which moves 0 out of the set
	// unless 2 is armed. So only the identity survives.
	ds := dropDecisions([]int{0, 1})
	r := reduce.NewReducer(reduce.Automorphisms(topo), ds, nil)
	if got := r.Group().Order(); got != 1 {
		t.Fatalf("effective group order = %d, want 1", got)
	}
	names := []string{"drop_n0_r0", "drop_n1_r0"}
	if len(simulateLineage(r, names, nil)) != 4 {
		t.Error("trivial group must not prune anything")
	}
}

// TestReducerRespectsShardPins: with a decision pinned (as shard leaves
// do), only permutations preserving the pinned assignment survive, so
// pruning never points at work outside the leaf.
func TestReducerRespectsShardPins(t *testing.T) {
	topo := sim.NewFullMesh(4)
	ds := dropDecisions([]int{0, 1, 2, 3})
	pins := map[string]uint64{"drop_n0_r0": 0}
	r := reduce.NewReducer(reduce.Automorphisms(topo), ds, pins)
	// Permutations must fix node 0's pinned decision relative to pins:
	// since only node 0 is pinned, any perm moving 0 maps its pinned
	// decision onto an unpinned one and is dropped: stabilizer of 0 in
	// S4 = S3 on {1,2,3}, order 6.
	if got := r.Group().Order(); got != 6 {
		t.Fatalf("pinned group order = %d, want 6", got)
	}
	// Within the leaf, the remaining three decisions still sort.
	order := []string{"drop_n1_r0", "drop_n2_r0", "drop_n3_r0"}
	survivors := simulateLineage(r, order, nil)
	// Survivors here simulate only the unpinned decisions; with S3 acting
	// on three symmetric sites that is one per failure count = 4.
	if len(survivors) != 4 {
		t.Errorf("pinned leaf: %d survivors, want 4", len(survivors))
	}
}

func TestCollectDecided(t *testing.T) {
	b := expr.NewBuilder()
	ds := dropDecisions([]int{0, 1})
	r := reduce.NewReducer(reduce.Trivial(2), ds, nil)
	v0 := b.Var("drop_n0_r0", 1)
	v1 := b.Var("drop_n1_r0", 1)
	other := b.Var("sensor_n0_0", 8)
	pc := []*expr.Expr{v0, b.Not(v1), b.Eq(other, b.Const(3, 8))}
	got := make(map[string]uint64)
	r.CollectDecided(got, pc)
	if len(got) != 2 || got["drop_n0_r0"] != 1 || got["drop_n1_r0"] != 0 {
		t.Errorf("CollectDecided = %v, want drop_n0_r0=1 drop_n1_r0=0", got)
	}
}

func TestRelabelName(t *testing.T) {
	p := reduce.Perm{2, 0, 1} // 0->2, 1->0, 2->1
	cases := map[string]string{
		"drop_n0_r0":   "drop_n2_r0",
		"dup_n1_r0":    "dup_n0_r0",
		"reboot_n2_r0": "reboot_n1_r0",
		"sensor_n1_3":  "sensor_n0_3",
		"plain":        "plain",
		"x_n9_y":       "x_n9_y", // out of range: unchanged
	}
	for in, want := range cases {
		if got := reduce.RelabelName(in, p); got != want {
			t.Errorf("RelabelName(%q) = %q, want %q", in, got, want)
		}
	}
	env := expr.Env{"drop_n0_r0": 1, "sensor_n2_0": 77}
	out := reduce.RelabelEnv(env, p)
	if out["drop_n2_r0"] != 1 || out["sensor_n1_0"] != 77 || len(out) != 2 {
		t.Errorf("RelabelEnv = %v", out)
	}
}

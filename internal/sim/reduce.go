package sim

// Engine-side symmetry reduction (tentpole of internal/reduce): the
// automorphism-group construction at engine build time and the
// failure-decision consultation that prunes symmetric branches.
//
// Everything here is derived state: the group is recomputed from the
// topology, the seen-set starts empty on every (re)start, and the snapshot
// format is untouched. A resumed run prunes less than an uninterrupted one
// (the pre-resume registrations are gone) but never differently in outcome:
// pruning only ever pins a decision whose twin subtree is explored, so the
// violation set and the per-orbit-representative test cases are preserved —
// NOT bit-identity, which is why -reduce sits after -compile in triage order.

import (
	"fmt"

	reducepkg "sde/internal/reduce"
	"sde/internal/vm"
)

// ReduceSymmetry declares the per-node asymmetries of a scenario so the
// symmetry layer can be used with node-aware programs. Without a
// declaration, reduction applies the topology's automorphism group
// automatically only when the program is node-uniform (never reads its
// node id and has no per-node initial memory); any other program gets the
// trivial group unless the caller vouches for its symmetry here.
type ReduceSymmetry struct {
	// Labels assigns every node an opaque role label (length K); only
	// automorphisms mapping like-labeled nodes onto each other survive.
	// This is how "node 12 is the sink" is declared: label the sink
	// distinctly and the group shrinks to the sink's stabilizer.
	Labels []uint64

	// NextHops declares a static routing function (next hop per node,
	// -1 = none); only automorphisms commuting with it survive. A
	// staircase route honestly trivializes a grid's symmetry group.
	NextHops []int
}

// buildReducer constructs the engine's reduction layer from immutable
// configuration. The group policy is conservative: a declared Symmetry is
// a caller promise and is honored (after stabilizing by its labels and
// routing); otherwise the full automorphism group applies only to
// node-uniform programs, and everything else gets the trivial group —
// reduction then prunes nothing.
func buildReducer(cfg *Config) *reducepkg.Reducer {
	group := reducepkg.Trivial(cfg.Topo.K())
	switch {
	case cfg.Symmetry != nil:
		g := reducepkg.Automorphisms(cfg.Topo)
		if cfg.Symmetry.Labels != nil {
			g = g.Stabilize(cfg.Symmetry.Labels)
		}
		if cfg.Symmetry.NextHops != nil {
			g = g.StabilizeRouting(cfg.Symmetry.NextHops)
		}
		group = g
	case !cfg.Prog.UsesNodeID() && cfg.NodeInit == nil:
		group = reducepkg.Automorphisms(cfg.Topo)
	}
	var decisions []reducepkg.Decision
	addAll := func(kind int, set map[int]bool) {
		for node, on := range set {
			if on {
				decisions = append(decisions, reducepkg.Decision{
					Kind: kind,
					Node: node,
					Name: reducepkg.DecisionName(kind, node),
				})
			}
		}
	}
	addAll(reducepkg.KindDrop, cfg.Failures.DropFirst)
	addAll(reducepkg.KindDup, cfg.Failures.DuplicateFirst)
	addAll(reducepkg.KindReboot, cfg.Failures.RebootOnFirst)
	return reducepkg.NewReducer(group, decisions, cfg.Pin)
}

// reduceContext assembles the decided failure-decision context the
// symmetry layer's pruning rule needs: a sub-assignment every completion
// of the lineage's subtree extends. For COB that is the union of the
// state's dscenario members' decided failure literals — the members share
// one path condition, so the union is exactly the lineage's decisions so
// far across all nodes.
func (e *Engine) reduceContext(s *vm.State) map[string]uint64 {
	alpha := make(map[string]uint64)
	if members, ok := e.mapper.ScenarioFor(s); ok {
		for _, m := range members {
			e.reducer.CollectDecided(alpha, m.PathCond())
		}
	} else {
		e.reducer.CollectDecided(alpha, s.PathCond())
	}
	return alpha
}

// decideFailure resolves one armed failure decision for state s. A shard
// pin (Config.Pin) always wins and is registered with the symmetry layer
// so later consultations prune against its subtree too. Otherwise, with a
// reducer, the decision may be pinned instead of forked when the pruned
// side's canonical form is already being explored by a symmetric twin; the
// pin constraint is added to the path condition so dscenario fingerprints
// and test cases stay complete.
//
// The reducer exists only for COB (newEngineShell): the soundness argument
// needs decided contexts that grow along each lineage, which COB's shared
// per-dscenario path condition provides. COW and SDS states carry only
// their own node's decisions, so reduction does nothing there.
func (e *Engine) decideFailure(s *vm.State, name string) (uint64, bool) {
	val, pinned := e.pinDecision(s, name)
	if e.reducer == nil {
		return val, pinned
	}
	if pinned {
		e.reducer.RegisterPinned(e.reduceContext(s), name, val)
		return val, true
	}
	e.own.Reduce.Checks++
	val, pruned := e.reducer.Decide(e.reduceContext(s), name)
	if !pruned {
		return 0, false
	}
	e.own.Reduce.Pins++
	v := e.ctx.Exprs.Var(name, 1)
	if val == 0 {
		s.AddConstraint(e.ctx.Exprs.Not(v))
	} else {
		s.AddConstraint(v)
	}
	return val, true
}

// validateSymmetry rejects malformed symmetry declarations at engine
// construction, before any exploration work happens.
func validateSymmetry(cfg *Config) error {
	if cfg.Symmetry == nil {
		return nil
	}
	k := cfg.Topo.K()
	if ls := cfg.Symmetry.Labels; ls != nil && len(ls) != k {
		return fmt.Errorf("sim: Symmetry.Labels has %d entries, topology has %d nodes", len(ls), k)
	}
	if hs := cfg.Symmetry.NextHops; hs != nil && len(hs) != k {
		return fmt.Errorf("sim: Symmetry.NextHops has %d entries, topology has %d nodes", len(hs), k)
	}
	return nil
}

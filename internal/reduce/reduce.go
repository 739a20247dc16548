package reduce

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"

	"sde/internal/expr"
	"sde/internal/vm"
)

// Failure-decision kinds, matching the engine's failure plan.
const (
	KindDrop = iota
	KindDup
	KindReboot
	numKinds
)

// Decision is one armed symbolic failure decision: a (kind, node) site and
// the path-condition variable name the engine forks on.
type Decision struct {
	Kind int
	Node int
	Name string
}

// DecisionName returns the engine's variable name for a failure decision.
// Only the first reception (r0) is armed, matching sim.applyFailures.
func DecisionName(kind, node int) string {
	switch kind {
	case KindDrop:
		return fmt.Sprintf("drop_n%d_r0", node)
	case KindDup:
		return fmt.Sprintf("dup_n%d_r0", node)
	default:
		return fmt.Sprintf("reboot_n%d_r0", node)
	}
}

// Reducer prunes symmetric failure-decision branches. It is built once per
// engine from immutable configuration (topology group, armed failure plan,
// shard pins) and is safe for concurrent reads after construction.
//
// The decision universe is the set of armed (kind, node) sites, ordered by
// variable name. An assignment A maps decisions to {0,1} (0 = failure
// branch, matching the engine's convention). The group acts on assignments
// by relabeling nodes: (π·A)(kind, node) = A(kind, π⁻¹(node)).
//
// Pruning rule (see DESIGN §10 for the soundness argument): exploration
// registers the canonical form — the minimum over the group of the jointly
// encoded (decided sites, values) pair — of every decision branch it
// commits to exploring. When the engine is about to fork decision d on a
// lineage whose accumulated decided context is α, an extension α ∪ {d=v}
// whose canonical form is already registered is a symmetric image of a
// partial assignment some live lineage is already exploring, so the
// engine pins the other side instead of forking. Because every prune
// points at a registered twin over an equal-size decided set, and every
// subsequent prune inside the twin's subtree happens over a strictly
// larger decided set, coverage chains terminate: every full assignment
// has an explored symmetric representative.
//
// The induction needs decided contexts that grow along each lineage and
// funnel every decision of a lineage through one context chain — true for
// COB, where a dscenario's members share one path condition and the
// context is the union over the dscenario. COW and SDS states carry only
// their own node's decisions; cross-node contexts are incomparable there
// and the chain argument fails, so the engine builds a Reducer for COB
// only and reduction does nothing under COW and SDS.
//
// The Reducer is stateful (the registered-canon set) and must only be
// used from the engine's single-threaded event loop.
type Reducer struct {
	group     *Group
	decisions []Decision     // sorted by Name
	nameIdx   map[string]int // Name -> index in decisions
	// permIdx[p][i] = index of decision i's image under group.Perms[p]
	// (same kind, node mapped through the permutation).
	permIdx [][]int
	// seen holds canonical encodings of every partial assignment whose
	// subtree the exploration has committed to. Derived state: rebuilt
	// empty on checkpoint resume, which only costs pruning power.
	seen map[string]struct{}
}

// NewReducer builds a reducer from a node-permutation group and the armed
// decision sites. Permutations that do not map the armed site set of each
// kind onto itself are discarded (their images would be executions of a
// different failure plan). When pinned is non-empty (sharded runs), only
// permutations that preserve the pinned partial assignment survive, so
// every covering lex-smaller assignment stays inside the same shard leaf.
func NewReducer(g *Group, decisions []Decision, pinned map[string]uint64) *Reducer {
	r := &Reducer{
		decisions: append([]Decision(nil), decisions...),
		nameIdx:   make(map[string]int, len(decisions)),
		seen:      make(map[string]struct{}),
	}
	sort.Slice(r.decisions, func(i, j int) bool { return r.decisions[i].Name < r.decisions[j].Name })
	for i, d := range r.decisions {
		r.nameIdx[d.Name] = i
	}
	kept := &Group{Truncated: g.Truncated}
	for _, p := range g.Perms {
		idx, ok := r.imageIndex(p)
		if !ok {
			continue
		}
		if !preservesPins(r.decisions, idx, pinned) {
			continue
		}
		kept.Perms = append(kept.Perms, p)
		r.permIdx = append(r.permIdx, idx)
	}
	if len(kept.Perms) == 0 {
		k := 0
		if len(g.Perms) > 0 {
			k = len(g.Perms[0])
		}
		kept.Perms = []Perm{Identity(k)}
		r.permIdx = append(r.permIdx, identityIndex(len(r.decisions)))
	}
	r.group = kept
	return r
}

// imageIndex maps each decision through p: decision (kind, n) goes to
// (kind, p[n]). Returns ok=false if any image site is not armed.
func (r *Reducer) imageIndex(p Perm) ([]int, bool) {
	idx := make([]int, len(r.decisions))
	for i, d := range r.decisions {
		if d.Node >= len(p) {
			return nil, false
		}
		j, ok := r.nameIdx[DecisionName(d.Kind, p[d.Node])]
		if !ok {
			return nil, false
		}
		idx[i] = j
	}
	return idx, true
}

// preservesPins reports that the permuted assignment of every pinned
// decision equals its own pin: pinned[image] exists and matches. Decisions
// that are not pinned must not map onto pinned ones either (that would let
// a covering assignment escape the leaf).
func preservesPins(decisions []Decision, idx []int, pinned map[string]uint64) bool {
	if len(pinned) == 0 {
		return true
	}
	for i, d := range decisions {
		v, dPinned := pinned[d.Name]
		w, imgPinned := pinned[decisions[idx[i]].Name]
		if dPinned != imgPinned {
			return false
		}
		if dPinned && v != w {
			return false
		}
	}
	return true
}

func identityIndex(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Group returns the effective (filtered) group the reducer prunes and
// replicates with.
func (r *Reducer) Group() *Group { return r.group }

// Decisions returns the size of the decision universe.
func (r *Reducer) Decisions() int { return len(r.decisions) }

// CollectDecided scans a path condition for decision literals — a bare
// decision variable (value 1, no failure) or its negation (value 0,
// failure branch) — and records them in dst. Composite constraints are
// ignored: only the unit literals the engine's forks and pins add encode
// decided failure choices.
func (r *Reducer) CollectDecided(dst map[string]uint64, pc []*expr.Expr) {
	for _, c := range pc {
		if c.IsVar() {
			if _, ok := r.nameIdx[c.VarName()]; ok {
				dst[c.VarName()] = 1
			}
			continue
		}
		if c.Kind() == expr.KindNot {
			if a := c.Arg(0); a.IsVar() {
				if _, ok := r.nameIdx[a.VarName()]; ok {
					dst[a.VarName()] = 0
				}
			}
		}
	}
}

// Decide is consulted when the engine is about to fork decision name on a
// lineage whose decided context is alpha (a sub-assignment every
// completion of the lineage's subtree extends — for COB, the union of the
// dscenario members' decided failure choices). It returns (v, true) to
// pin the decision to v without forking: the pruned sibling's canonical
// form is already registered by a live lineage, so its subtree is a
// symmetric image of work the exploration keeps. (0, false) means fork
// both sides; Decide has then registered both extensions as committed.
//
// When both extensions are already registered the lineage is fully
// redundant, but the engine cannot silently discard a live state, so the
// no-failure side (v=1) is kept — sound, merely conservative.
func (r *Reducer) Decide(alpha map[string]uint64, name string) (uint64, bool) {
	if len(r.group.Perms) <= 1 {
		return 0, false
	}
	d, ok := r.nameIdx[name]
	if !ok {
		return 0, false
	}
	vals := r.context(alpha, d)
	vals[d] = 0
	canon0 := r.canon(vals)
	vals[d] = 1
	canon1 := r.canon(vals)
	_, seen0 := r.seen[canon0]
	_, seen1 := r.seen[canon1]
	switch {
	case seen0 && seen1:
		return 1, true
	case seen0:
		r.seen[canon1] = struct{}{}
		return 1, true
	case seen1:
		r.seen[canon0] = struct{}{}
		return 0, true
	default:
		r.seen[canon0] = struct{}{}
		r.seen[canon1] = struct{}{}
		return 0, false
	}
}

// RegisterPinned records a decision the engine resolved without the
// reducer (a shard pin) so later consultations can prune against its
// subtree too.
func (r *Reducer) RegisterPinned(alpha map[string]uint64, name string, val uint64) {
	if len(r.group.Perms) <= 1 {
		return
	}
	d, ok := r.nameIdx[name]
	if !ok {
		return
	}
	vals := r.context(alpha, d)
	vals[d] = int8(val & 1)
	r.seen[r.canon(vals)] = struct{}{}
}

// context converts the decided map into the dense value vector used by
// canon, leaving decision d undecided for the caller to set.
func (r *Reducer) context(alpha map[string]uint64, d int) []int8 {
	vals := make([]int8, len(r.decisions))
	for i := range vals {
		vals[i] = -1
	}
	for nm, v := range alpha {
		if i, ok := r.nameIdx[nm]; ok && i != d {
			vals[i] = int8(v & 1)
		}
	}
	return vals
}

// canon returns the canonical encoding of a partial assignment: the
// minimum over the group of the image's (site, value) list in decision
// order. Two partial assignments have equal canons iff some group element
// maps one onto the other, domains included.
func (r *Reducer) canon(vals []int8) string {
	img := make([]int8, len(vals))
	best := ""
	buf := make([]byte, 0, 2*len(vals))
	for p := range r.group.Perms {
		idx := r.permIdx[p]
		for i := range img {
			img[i] = -1
		}
		for i, v := range vals {
			if v >= 0 {
				img[idx[i]] = v
			}
		}
		buf = buf[:0]
		for i, v := range img {
			if v >= 0 {
				buf = append(buf, byte(i>>8), byte(i), byte('0'+v))
			}
		}
		if best == "" || string(buf) < best {
			best = string(buf)
		}
	}
	return best
}

// --- witness relabeling -----------------------------------------------------

// nodeVarRe matches the node-id infix the engine embeds in every symbolic
// variable name: failure decisions ("drop_n3_r0") and symbolic inputs
// ("sensor_n12_0") both use "_n<id>_".
var nodeVarRe = regexp.MustCompile(`_n(\d+)_`)

// RelabelName rewrites the node-id infix of a symbolic variable name
// through the permutation: drop_n3_r0 under π with π(3)=7 becomes
// drop_n7_r0. Names without a node infix are returned unchanged.
func RelabelName(name string, p Perm) string {
	return nodeVarRe.ReplaceAllStringFunc(name, func(m string) string {
		id, err := strconv.Atoi(m[2 : len(m)-1])
		if err != nil || id < 0 || id >= len(p) {
			return m
		}
		return fmt.Sprintf("_n%d_", p[id])
	})
}

// RelabelEnv rewrites every variable name in a witness model through the
// permutation. Values are unchanged — the permuted assignment drives the
// same execution at the image nodes.
func RelabelEnv(env expr.Env, p Perm) expr.Env {
	if env == nil {
		return nil
	}
	out := make(expr.Env, len(env))
	for k, v := range env {
		out[RelabelName(k, p)] = v
	}
	return out
}

// ExpandViolations closes a violation list under the reducer's group: for
// every violation and every non-identity permutation it synthesizes the
// relabeled image — node mapped through the permutation, witness model
// variable names rewritten via RelabelName, values unchanged. The filtered
// group is closed under composition (armed-site and pin preservation both
// compose), so a single pass over the group reaches the full orbit.
//
// Images that duplicate an existing (Node, Time, Msg) triple are dropped;
// the survivors are appended after the originals in deterministic
// (Node, Time, Msg) order, marked Synthesized with a nil Cond. The input
// slice is not modified.
func (r *Reducer) ExpandViolations(vs []*vm.Violation) []*vm.Violation {
	if len(r.group.Perms) <= 1 || len(vs) == 0 {
		return vs
	}
	type vkey struct {
		node int
		time uint64
		msg  string
	}
	seen := make(map[vkey]struct{}, len(vs))
	for _, v := range vs {
		seen[vkey{v.Node, v.Time, v.Msg}] = struct{}{}
	}
	var synth []*vm.Violation
	for _, v := range vs {
		for _, p := range r.group.Perms {
			if p.IsIdentity() {
				continue
			}
			img := &vm.Violation{
				Node:        v.Node,
				Time:        v.Time,
				Msg:         v.Msg,
				Model:       RelabelEnv(v.Model, p),
				StateID:     v.StateID,
				Synthesized: true,
			}
			if v.Node >= 0 && v.Node < len(p) {
				img.Node = p[v.Node]
			}
			k := vkey{img.Node, img.Time, img.Msg}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			synth = append(synth, img)
		}
	}
	sort.Slice(synth, func(i, j int) bool {
		a, b := synth[i], synth[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.Msg < b.Msg
	})
	out := make([]*vm.Violation, 0, len(vs)+len(synth))
	out = append(out, vs...)
	return append(out, synth...)
}

// Package shard is the partition state machine of parallel SDE (paper §VI):
// how the dscenario space is cut into independently executable work items,
// and what happens to an item when its run finishes, suspends at a depth
// horizon or is lost. It knows nothing about engines,
// goroutines, sockets or leases — the in-process worker pool (package sde)
// and the coordinator (internal/dist) are two transports over the one
// Queue, which is why a partition yields the same leaves whichever ran it.
package shard

import "fmt"

// Item identifies one sub-space of the dscenario partition: bit i of
// Bits is the pinned value of the i-th shardable drop decision, Depth
// says how many decisions are pinned. Cont, when non-empty, narrows the
// sub-space along the second shard dimension — exploration depth: each
// ContStep records one depth-horizon suspension of the (depth, bits)
// run's frontier and which slice of the fan-out this item continues. The
// completed items of any run form a prefix-free cover of the
// two-dimensional space (see VerifyCover).
type Item struct {
	Depth int
	Bits  uint64
	Cont  []ContStep `json:",omitempty"`
}

// ContStep is one generation of depth-horizon continuation identity:
// the suspended frontier was partitioned Of ways and this item resumes
// slice Seg. A chain of steps pins the item to one leaf of the
// continuation tree, exactly as (Depth, Bits) pins it to one leaf of the
// failure-decision tree.
type ContStep struct {
	Seg int
	Of  int
}

// MaxContFanout bounds one suspension's fan-out; maxContDepth bounds how
// many horizon generations a single item may chain — both are sanity
// limits on wire-supplied items, far above anything a real fleet forms.
const (
	MaxContFanout = 4096
	maxContDepth  = 64
)

// Label renders the item for logs: "root" or "bits/depth", with one
// "~seg/of" suffix per continuation generation.
func (it Item) Label() string {
	base := "root"
	if it.Depth != 0 {
		base = fmt.Sprintf("%0*b/%d", it.Depth, it.Bits, it.Depth)
	}
	for _, cs := range it.Cont {
		base += fmt.Sprintf("~%d/%d", cs.Seg, cs.Of)
	}
	return base
}

// Dir names the item's checkpoint subdirectory. The full identity —
// (depth, bits) plus the continuation path — names the sub-space, so a
// re-issued lease finds the crashed worker's snapshot; completed items
// form a prefix-free cover, so directories never collide.
func (it Item) Dir() string {
	base := "root"
	if it.Depth != 0 {
		base = fmt.Sprintf("d%d-%0*b", it.Depth, it.Depth, it.Bits)
	}
	for _, cs := range it.Cont {
		base += fmt.Sprintf("-c%d-%d", cs.Seg, cs.Of)
	}
	return base
}

// Validate checks a (possibly wire-supplied) item against a space with
// maxBits shardable decisions.
func (it Item) Validate(maxBits int) error {
	if it.Depth < 0 || it.Depth > maxBits {
		return fmt.Errorf("shard: item depth %d outside [0, %d]", it.Depth, maxBits)
	}
	if it.Depth < 64 && it.Bits >= 1<<uint(it.Depth) {
		return fmt.Errorf("shard: item bits %b wider than depth %d", it.Bits, it.Depth)
	}
	if len(it.Cont) > maxContDepth {
		return fmt.Errorf("shard: item chains %d continuations (max %d)", len(it.Cont), maxContDepth)
	}
	for i, cs := range it.Cont {
		if cs.Of < 1 || cs.Of > MaxContFanout {
			return fmt.Errorf("shard: continuation step %d fan-out %d outside [1, %d]", i, cs.Of, MaxContFanout)
		}
		if cs.Seg < 0 || cs.Seg >= cs.Of {
			return fmt.Errorf("shard: continuation step %d slice %d outside [0, %d)", i, cs.Seg, cs.Of)
		}
	}
	return nil
}

// VerifyCover checks that the items are a prefix-free, exact cover of the
// two-dimensional shard space. Phase 1 telescopes each (depth, bits)
// base's continuation tree: a suspended run's fan-out produced exactly one
// item per slice, so merging sibling slices bottom-up must collapse each
// base to a single item with an empty continuation path. Phase 2 then
// telescopes the failure-decision tree: merging sibling bit sub-spaces
// bottom-up must reach the root exactly once.
func VerifyCover(items []Item) error {
	type base struct {
		depth int
		bits  uint64
	}
	// conts[b] maps contKey(path) -> path for every item of base b still
	// uncollapsed.
	conts := make(map[base]map[string][]ContStep)
	for _, it := range items {
		if it.Depth > 62 {
			return fmt.Errorf("shard: item depth %d too deep to verify", it.Depth)
		}
		b := base{it.Depth, it.Bits}
		if conts[b] == nil {
			conts[b] = make(map[string][]ContStep)
		}
		key := contKey(it.Cont)
		if _, dup := conts[b][key]; dup {
			return fmt.Errorf("shard: %s appears twice", it.Label())
		}
		conts[b][key] = it.Cont
	}
	// Phase 1: collapse each base's continuation leaves to the empty path.
	maxDepth := 0
	set := make(map[base]bool, len(conts))
	for b, paths := range conts {
		if err := collapseContinuations(Item{Depth: b.depth, Bits: b.bits}, paths); err != nil {
			return err
		}
		set[b] = true
		if b.depth > maxDepth {
			maxDepth = b.depth
		}
	}
	// Phase 2: bit telescoping over the collapsed bases.
	for depth := maxDepth; depth > 0; depth-- {
		for b := range set {
			if b.depth != depth {
				continue
			}
			sibling := base{depth, b.bits ^ 1<<uint(depth-1)}
			if !set[sibling] {
				return fmt.Errorf("shard: cover is missing the sibling of %s",
					Item{Depth: b.depth, Bits: b.bits}.Label())
			}
			delete(set, b)
			delete(set, sibling)
			parent := base{depth - 1, b.bits &^ (1 << uint(depth-1))}
			if set[parent] {
				return fmt.Errorf("shard: %s overlaps its covering prefix %s",
					Item{Depth: b.depth, Bits: b.bits}.Label(),
					Item{Depth: parent.depth, Bits: parent.bits}.Label())
			}
			set[parent] = true
		}
	}
	if !set[base{}] || len(set) != 1 {
		return fmt.Errorf("shard: leaves do not cover the space")
	}
	return nil
}

// collapseContinuations telescopes one base's continuation paths to the
// empty path in place: for each path of maximal length, all Of siblings of
// its last step must be present; they merge into their common prefix.
// Anything left over — a missing sibling, or an item that is a prefix of
// another (an overlap: the parent covers everything its slices do) — is an
// invalid cover.
func collapseContinuations(b Item, paths map[string][]ContStep) error {
	maxLen := 0
	for _, p := range paths {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	for l := maxLen; l > 0; l-- {
		level := make([][]ContStep, 0, len(paths))
		for _, p := range paths {
			if len(p) == l {
				level = append(level, p)
			}
		}
		for _, p := range level {
			if _, still := paths[contKey(p)]; !still {
				continue // merged as a sibling of an earlier path this level
			}
			last := p[len(p)-1]
			sib := append([]ContStep(nil), p...)
			for seg := 0; seg < last.Of; seg++ {
				sib[len(sib)-1] = ContStep{Seg: seg, Of: last.Of}
				if _, ok := paths[contKey(sib)]; !ok {
					b.Cont = sib
					return fmt.Errorf("shard: cover is missing continuation slice %s", b.Label())
				}
			}
			for seg := 0; seg < last.Of; seg++ {
				sib[len(sib)-1] = ContStep{Seg: seg, Of: last.Of}
				delete(paths, contKey(sib))
			}
			parent := p[:len(p)-1]
			if _, overlap := paths[contKey(parent)]; overlap {
				b.Cont = p
				lbl := b.Label()
				b.Cont = parent
				return fmt.Errorf("shard: %s overlaps its covering continuation %s", lbl, b.Label())
			}
			paths[contKey(parent)] = append([]ContStep(nil), parent...)
		}
	}
	if _, root := paths[contKey(nil)]; !root || len(paths) != 1 {
		b.Cont = nil
		return fmt.Errorf("shard: continuation leaves of %s do not cover its frontier", b.Label())
	}
	return nil
}

// contKey canonicalises a continuation path for map keying.
func contKey(path []ContStep) string {
	var sb []byte
	for _, cs := range path {
		sb = fmt.Appendf(sb, "%d/%d;", cs.Seg, cs.Of)
	}
	return string(sb)
}

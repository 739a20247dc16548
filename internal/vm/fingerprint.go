package vm

import "sde/internal/expr"

// Fingerprint returns a structural hash of the state's full configuration:
// program position, registers, memory, path condition, communication
// history, and pending events. Two states with equal fingerprints are
// duplicates in the paper's sense (§III-A: "two or more states with the
// same configuration (e.g. heap, stack, program counter, path constraints,
// and the communication history)").
//
// Fingerprints are deterministic across runs and across mapping algorithms
// (expression hashes are structural and variable names are derived from
// per-state counters), so exploded dscenario sets from COB, COW, and SDS
// runs can be compared directly.
func (s *State) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
		h ^= h >> 29
	}
	mix(uint64(s.node))
	mix(uint64(s.status))
	mix(uint64(int64(s.fn)))
	mix(uint64(int64(s.pc)))
	for _, fr := range s.frames {
		mix(uint64(fr.fn))
		mix(uint64(fr.pc))
	}
	for _, r := range s.regs {
		if r != nil {
			mix(r.Hash())
		} else {
			mix(0)
		}
	}
	mix(s.memoryHash())
	// The path condition is a set; XOR makes the digest order-independent.
	var pcHash uint64
	for _, c := range s.pathCond {
		pcHash ^= c.Hash()
	}
	mix(pcHash)
	for _, e := range s.hist {
		mix(uint64(e.Dir))
		mix(uint64(e.Peer))
		mix(e.Time)
		mix(uint64(e.Seq))
		mix(e.Payload)
		mix(e.SenderFP)
	}
	for i := range s.events {
		ev := &s.events[i]
		mix(ev.Time)
		mix(uint64(ev.Kind))
		mix(uint64(int64(ev.Fn)))
		if ev.Arg != nil {
			mix(ev.Arg.Hash())
		}
		mix(uint64(ev.Src))
		for _, w := range ev.Data {
			mix(w.Hash())
		}
	}
	mix(uint64(s.sendSeq))
	mix(uint64(s.recvSeq))
	mix(uint64(s.symSeq))
	return h
}

// HistoryHash returns an order-sensitive digest of the state's
// communication history alone. States of the same node within one dstate
// must agree on it — the conflict-freedom requirement of paper §II-B.
func (s *State) HistoryHash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, e := range s.hist {
		mix(uint64(e.Dir))
		mix(uint64(e.Peer))
		mix(e.Time)
		mix(uint64(e.Seq))
		mix(e.Payload)
		mix(e.SenderFP)
	}
	return h
}

func (s *State) memoryHash() uint64 {
	h := uint64(14695981039346656037)
	for _, sl := range s.mem.slots { // in page order
		p := sl.p
		if !p.hashed {
			p.hash, p.hashed = pageHash(s.ctx.Exprs, &p.words), true
		}
		// A page holding only zeros is indistinguishable from an absent
		// page.
		if p.hash == 0 {
			continue
		}
		h ^= uint64(sl.idx)
		h *= 1099511628211
		h ^= p.hash
		h *= 1099511628211
	}
	return h
}

// pageHash is one page's term of the memory hash, 0 for a page holding
// only zeros.
func pageHash(eb *expr.Builder, words *[pageWords]uint32) uint64 {
	ph := uint64(0)
	for wi, id := range words {
		if id == 0 {
			continue
		}
		w := eb.Node(id)
		// Words explicitly stored as 0 hash like untouched words, so
		// layouts differing only in dirty-zero words match.
		if w.IsConst() && w.ConstVal() == 0 {
			continue
		}
		ph ^= (uint64(wi) + 0x9e3779b97f4a7c15) * 1099511628211
		ph ^= w.Hash() * 0x9e3779b97f4a7c15
	}
	return ph
}

package vm

import (
	"math/rand"
	"testing"

	"sde/internal/expr"
)

// fingerprintFromScratch is s.Fingerprint computed over fresh copies of
// s's pages, which carry no memoized hash; s is left as it was.
func fingerprintFromScratch(s *State) uint64 {
	saved := s.mem.slots
	s.mem.slots = make([]pageSlot, len(saved))
	for i, sl := range saved {
		s.mem.slots[i] = pageSlot{idx: sl.idx, p: &page{words: sl.p.words}}
	}
	fp := s.Fingerprint()
	s.mem.slots = saved
	return fp
}

// TestFingerprintPageMemo drives a family of states through one seeded
// sequence of stores — dirty zeros, stores back to untouched and
// symbolic words included — forks, releases and snapshot restores over a
// few pages, so most pages are shared and carry a memo when they are
// written. After every operation each live state's Fingerprint must equal
// the one computed without the memo: a store that left a stale hash on
// its page, or a split or restored page that inherited one, fails here.
func TestFingerprintPageMemo(t *testing.T) {
	ctx := NewContext()
	prog := shareProg(t)
	eb := ctx.Exprs
	rng := rand.New(rand.NewSource(41))
	family := []*State{NewState(ctx, prog, 0), NewState(ctx, prog, 1)}
	check := func(step int, op string) {
		t.Helper()
		for i, s := range family {
			if got, want := s.Fingerprint(), fingerprintFromScratch(s); got != want {
				t.Fatalf("step %d: after %s, state %d fingerprints %#x, %#x without the memo", step, op, i, got, want)
			}
		}
	}
	memoHits := 0
	for step := 0; step < 4000; step++ {
		i := rng.Intn(len(family))
		s := family[i]
		var op string
		switch r := rng.Intn(16); {
		case r < 10:
			op = "store"
			addr := uint32(rng.Intn(3))<<pageShift | uint32(rng.Intn(4))
			var v *expr.Expr // back to untouched
			switch rng.Intn(4) {
			case 0:
				v = eb.Const(0, WordBits) // a dirty zero
			case 1:
				v = eb.Var("x", WordBits)
			case 2:
				v = eb.Const(uint64(1+rng.Intn(3)), WordBits)
			}
			if i, ok := s.mem.find(addr >> pageShift); ok && s.mem.slots[i].p.hashed {
				memoHits++
			}
			s.StoreWord(addr, v)
		case r < 13:
			op = "fork"
			if len(family) < 12 {
				family = append(family, s.Fork())
			}
		case r < 15:
			op = "release"
			if len(family) > 1 {
				s.Release()
				family = append(family[:i], family[i+1:]...)
			}
		default:
			op = "restore"
			pt := NewPageTable(ctx)
			images := make([]StateImage, len(family))
			for j, m := range family {
				images[j] = m.Image(pt)
			}
			restored, err := RestoreStates(ctx, prog, images, pt.Pages())
			if err != nil {
				t.Fatal(err)
			}
			for j, m := range family {
				if got, want := restored[j].Fingerprint(), m.Fingerprint(); got != want {
					t.Fatalf("step %d: restored state %d fingerprints %#x, its original %#x", step, j, got, want)
				}
				m.Release()
			}
			family = restored
		}
		check(step, op)
	}
	if memoHits == 0 {
		t.Error("no store ever wrote a page that held a memoized hash")
	}
}

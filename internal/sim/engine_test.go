package sim

import (
	"strings"
	"testing"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/isa"
	"sde/internal/vm"
)

func buildProg(t testing.TB, f func(b *isa.Builder)) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	f(b)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return prog
}

// The ping test program: every node stores a marker at boot; a node whose
// addrSendTo config is set unicasts one 2-word packet there; receptions
// are counted.
const (
	addrBootMark  = 0x10
	addrRecvCount = 0x11
	addrLastSrc   = 0x12
	addrSendTo    = 0x20
	noDest        = 0xffffffff
)

func pingProg(t testing.TB) *isa.Program {
	return buildProg(t, func(b *isa.Builder) {
		boot := b.Func("boot")
		boot.MovI(isa.R3, 0)
		boot.MovI(isa.R1, 1)
		boot.Store(isa.R3, addrBootMark, isa.R1)
		boot.Load(isa.R4, isa.R3, addrSendTo)
		boot.EqI(isa.R5, isa.R4, noDest)
		boot.BrNZ(isa.R5, "done")
		boot.MovI(isa.R6, 0x300)
		boot.MovI(isa.R7, 0xAB)
		boot.Store(isa.R6, 0, isa.R7)
		boot.NodeID(isa.R7)
		boot.Store(isa.R6, 1, isa.R7)
		boot.Send(isa.R4, isa.R6, 2)
		boot.Label("done")
		boot.Ret()

		recv := b.Func("on_recv")
		recv.MovI(isa.R3, 0)
		recv.Load(isa.R4, isa.R3, addrRecvCount)
		recv.AddI(isa.R4, isa.R4, 1)
		recv.Store(isa.R3, addrRecvCount, isa.R4)
		recv.Store(isa.R3, addrLastSrc, isa.R0)
		recv.Ret()
	})
}

// sendToInit configures addrSendTo per node.
func sendToInit(dest map[int]uint32) func(int, *vm.State, *expr.Builder) {
	return func(node int, s *vm.State, eb *expr.Builder) {
		d := uint64(noDest)
		if v, ok := dest[node]; ok {
			d = uint64(v)
		}
		s.StoreWord(addrSendTo, eb.Const(d, vm.WordBits))
	}
}

func statesByNode(res *Result, k int) [][]*vm.State {
	out := make([][]*vm.State, k)
	res.Mapper.ForEachState(func(s *vm.State) {
		out[s.NodeID()] = append(out[s.NodeID()], s)
	})
	return out
}

func TestEngineBootAndUnicast(t *testing.T) {
	eng, err := NewEngine(Config{
		Topo:            NewLine(3),
		Prog:            pingProg(t),
		Algorithm:       core.SDSAlgorithm,
		Horizon:         100,
		NodeInit:        sendToInit(map[int]uint32{0: 1}),
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Aborted {
		t.Fatalf("aborted: %s", res.AbortReason)
	}
	if res.FinalStates != 3 {
		t.Fatalf("states = %d, want 3 (no symbolic input anywhere)", res.FinalStates)
	}
	byNode := statesByNode(res, 3)
	for n := 0; n < 3; n++ {
		if got := byNode[n][0].LoadWord(addrBootMark).ConstVal(); got != 1 {
			t.Errorf("node %d boot marker = %d", n, got)
		}
	}
	n1 := byNode[1][0]
	if got := n1.LoadWord(addrRecvCount).ConstVal(); got != 1 {
		t.Errorf("node 1 recv count = %d, want 1", got)
	}
	if got := n1.LoadWord(addrLastSrc).ConstVal(); got != 0 {
		t.Errorf("node 1 last src = %d, want 0", got)
	}
	if got := byNode[2][0].LoadWord(addrRecvCount).ConstVal(); got != 0 {
		t.Errorf("node 2 recv count = %d, want 0", got)
	}
	if h := byNode[0][0].History(); len(h) != 1 || h[0].Dir != vm.DirSent || h[0].Peer != 1 {
		t.Errorf("node 0 history = %+v", h)
	}
	if h := n1.History(); len(h) != 1 || h[0].Dir != vm.DirRecv || h[0].Peer != 0 {
		t.Errorf("node 1 history = %+v", h)
	}
}

func TestEngineBroadcast(t *testing.T) {
	// The middle node of a 3-line broadcasts: both ends receive.
	prog := buildProg(t, func(b *isa.Builder) {
		boot := b.Func("boot")
		boot.MovI(isa.R3, 0)
		boot.Load(isa.R4, isa.R3, addrSendTo)
		boot.EqI(isa.R5, isa.R4, noDest)
		boot.BrNZ(isa.R5, "done")
		boot.MovI(isa.R6, 0x300)
		boot.MovI(isa.R7, 0x42)
		boot.Store(isa.R6, 0, isa.R7)
		boot.MovI(isa.R4, isa.BroadcastAddr)
		boot.Send(isa.R4, isa.R6, 1)
		boot.Label("done")
		boot.Ret()
		recv := b.Func("on_recv")
		recv.MovI(isa.R3, 0)
		recv.Load(isa.R4, isa.R3, addrRecvCount)
		recv.AddI(isa.R4, isa.R4, 1)
		recv.Store(isa.R3, addrRecvCount, isa.R4)
		recv.Load(isa.R5, isa.R1, 0)
		recv.EqI(isa.R6, isa.R5, 0x42)
		recv.Assert(isa.R6, "payload corrupted")
		recv.Ret()
	})
	eng, err := NewEngine(Config{
		Topo:      NewLine(3),
		Prog:      prog,
		Algorithm: core.COWAlgorithm,
		Horizon:   100,
		NodeInit:  sendToInit(map[int]uint32{1: 0}), // any non-noDest value triggers broadcast
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %+v", res.Violations)
	}
	byNode := statesByNode(res, 3)
	for _, n := range []int{0, 2} {
		if got := byNode[n][0].LoadWord(addrRecvCount).ConstVal(); got != 1 {
			t.Errorf("node %d recv count = %d, want 1", n, got)
		}
	}
	// The sender's history holds one send per neighbour (broadcast =
	// series of unicasts, paper footnote 1).
	if h := byNode[1][0].History(); len(h) != 2 {
		t.Errorf("broadcaster history = %+v, want 2 sends", h)
	}
}

func TestEngineNonNeighborSendDies(t *testing.T) {
	eng, err := NewEngine(Config{
		Topo:      NewLine(3),
		Prog:      pingProg(t),
		Algorithm: core.SDSAlgorithm,
		Horizon:   100,
		NodeInit:  sendToInit(map[int]uint32{0: 2}), // 2 is out of radio range of 0
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The sending state dies; the engine surfaces it as a violation.
	found := false
	for _, v := range res.Violations {
		if v.Node == 0 && strings.Contains(v.Msg, "cannot reach") {
			found = true
		}
	}
	if !found {
		t.Errorf("no violation for out-of-range unicast: %+v", res.Violations)
	}
}

func TestEngineTimerChain(t *testing.T) {
	// A counter timer that re-arms 5 times, 10 ticks apart.
	prog := buildProg(t, func(b *isa.Builder) {
		boot := b.Func("boot")
		boot.MovI(isa.R1, 10)
		boot.Timer("tick", isa.R1, isa.R0)
		boot.Ret()
		tick := b.Func("tick")
		tick.MovI(isa.R3, 0)
		tick.Load(isa.R4, isa.R3, 0x50)
		tick.AddI(isa.R4, isa.R4, 1)
		tick.Store(isa.R3, 0x50, isa.R4)
		tick.UltI(isa.R5, isa.R4, 5)
		tick.BrZ(isa.R5, "stop")
		tick.MovI(isa.R1, 10)
		tick.Timer("tick", isa.R1, isa.R0)
		tick.Label("stop")
		tick.Ret()
	})
	eng, err := NewEngine(Config{
		Topo:      NewLine(1),
		Prog:      prog,
		Algorithm: core.COBAlgorithm,
		Horizon:   1000,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byNode := statesByNode(res, 1)
	if got := byNode[0][0].LoadWord(0x50).ConstVal(); got != 5 {
		t.Errorf("tick counter = %d, want 5", got)
	}
	if res.VirtualTime != 50 {
		t.Errorf("final virtual time = %d, want 50", res.VirtualTime)
	}
}

func TestEngineHorizonCutsOff(t *testing.T) {
	prog := buildProg(t, func(b *isa.Builder) {
		boot := b.Func("boot")
		boot.MovI(isa.R1, 10)
		boot.Timer("tick", isa.R1, isa.R0)
		boot.Ret()
		tick := b.Func("tick")
		tick.MovI(isa.R3, 0)
		tick.Load(isa.R4, isa.R3, 0x50)
		tick.AddI(isa.R4, isa.R4, 1)
		tick.Store(isa.R3, 0x50, isa.R4)
		tick.MovI(isa.R1, 10)
		tick.Timer("tick", isa.R1, isa.R0) // re-arms forever
		tick.Ret()
	})
	eng, err := NewEngine(Config{
		Topo:      NewLine(1),
		Prog:      prog,
		Algorithm: core.SDSAlgorithm,
		Horizon:   35,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byNode := statesByNode(res, 1)
	// Ticks at 10, 20, 30; the tick at 40 is beyond the horizon.
	if got := byNode[0][0].LoadWord(0x50).ConstVal(); got != 3 {
		t.Errorf("tick counter = %d, want 3", got)
	}
	if res.Aborted {
		t.Error("horizon cut-off must not count as an abort")
	}
}

func TestEngineDropFailureForks(t *testing.T) {
	for _, algo := range []core.Algorithm{core.COBAlgorithm, core.COWAlgorithm, core.SDSAlgorithm} {
		t.Run(algo.String(), func(t *testing.T) {
			eng, err := NewEngine(Config{
				Topo:      NewLine(2),
				Prog:      pingProg(t),
				Algorithm: algo,
				Horizon:   100,
				NodeInit:  sendToInit(map[int]uint32{0: 1}),
				Failures: FailurePlan{
					DropFirst: NodeSet([]int{1}),
				},
				CheckInvariants: true,
			})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			byNode := statesByNode(res, 2)
			if len(byNode[1]) != 2 {
				t.Fatalf("node 1 states = %d, want 2 (received/dropped)", len(byNode[1]))
			}
			var counts []uint64
			for _, s := range byNode[1] {
				counts = append(counts, s.LoadWord(addrRecvCount).ConstVal())
			}
			if !(counts[0] == 0 && counts[1] == 1 || counts[0] == 1 && counts[1] == 0) {
				t.Errorf("recv counts = %v, want one 0 and one 1", counts)
			}
			// Both states carry the drop decision in their path condition.
			for _, s := range byNode[1] {
				if len(s.PathCond()) != 1 {
					t.Errorf("state %d path condition size = %d, want 1",
						s.ID(), len(s.PathCond()))
				}
			}
			// The represented dscenarios: drop and no-drop.
			if got := res.DScenarios.Int64(); got != 2 {
				t.Errorf("dscenarios = %d, want 2", got)
			}
			// COB forks node 0's state as well; COW/SDS must not.
			wantNode0 := 1
			if algo == core.COBAlgorithm {
				wantNode0 = 2
			}
			if len(byNode[0]) != wantNode0 {
				t.Errorf("node 0 states = %d, want %d", len(byNode[0]), wantNode0)
			}
		})
	}
}

func TestEngineDuplicateFailure(t *testing.T) {
	eng, err := NewEngine(Config{
		Topo:      NewLine(2),
		Prog:      pingProg(t),
		Algorithm: core.SDSAlgorithm,
		Horizon:   100,
		NodeInit:  sendToInit(map[int]uint32{0: 1}),
		Failures: FailurePlan{
			DuplicateFirst: NodeSet([]int{1}),
		},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byNode := statesByNode(res, 2)
	if len(byNode[1]) != 2 {
		t.Fatalf("node 1 states = %d, want 2", len(byNode[1]))
	}
	var counts []uint64
	for _, s := range byNode[1] {
		counts = append(counts, s.LoadWord(addrRecvCount).ConstVal())
	}
	if !(counts[0] == 1 && counts[1] == 2 || counts[0] == 2 && counts[1] == 1) {
		t.Errorf("recv counts = %v, want {1, 2}", counts)
	}
}

func TestEngineRebootFailure(t *testing.T) {
	eng, err := NewEngine(Config{
		Topo:      NewLine(2),
		Prog:      pingProg(t),
		Algorithm: core.SDSAlgorithm,
		Horizon:   100,
		NodeInit:  sendToInit(map[int]uint32{0: 1}),
		Failures: FailurePlan{
			RebootOnFirst: NodeSet([]int{1}),
		},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byNode := statesByNode(res, 2)
	if len(byNode[1]) != 2 {
		t.Fatalf("node 1 states = %d, want 2", len(byNode[1]))
	}
	// One state processed the packet normally; the rebooted one lost its
	// volatile memory (recv count 0) but re-ran boot (marker restored 1).
	seenReboot := false
	for _, s := range byNode[1] {
		if s.LoadWord(addrRecvCount).ConstVal() == 0 {
			seenReboot = true
			if got := s.LoadWord(addrBootMark).ConstVal(); got != 1 {
				t.Errorf("rebooted state boot marker = %d, want 1 (re-booted)", got)
			}
			// Volatile config is gone after reboot (NodeInit is not a ROM).
			if got := s.LoadWord(addrSendTo).ConstVal(); got != 0 {
				t.Errorf("rebooted state kept config word %#x", got)
			}
		}
	}
	if !seenReboot {
		t.Error("no rebooted state found")
	}
}

func TestEngineStateCapAborts(t *testing.T) {
	// A program that forks unboundedly on fresh symbolic input.
	prog := buildProg(t, func(b *isa.Builder) {
		boot := b.Func("boot")
		boot.MovI(isa.R1, 1)
		boot.Timer("tick", isa.R1, isa.R0)
		boot.Ret()
		tick := b.Func("tick")
		tick.Sym(isa.R4, "coin", 1)
		tick.BrNZ(isa.R4, "join")
		tick.Label("join")
		tick.MovI(isa.R1, 1)
		tick.Timer("tick", isa.R1, isa.R0)
		tick.Ret()
	})
	eng, err := NewEngine(Config{
		Topo:      NewLine(2),
		Prog:      prog,
		Algorithm: core.COBAlgorithm,
		Horizon:   1 << 40,
		Caps:      Caps{MaxStates: 100},
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Aborted {
		t.Fatal("run with exploding state space did not hit the state cap")
	}
	if !strings.Contains(res.AbortReason, "state cap") {
		t.Errorf("abort reason = %q", res.AbortReason)
	}
}

func TestEngineMetricsSampling(t *testing.T) {
	eng, err := NewEngine(Config{
		Topo:        NewLine(2),
		Prog:        pingProg(t),
		Algorithm:   core.SDSAlgorithm,
		Horizon:     100,
		NodeInit:    sendToInit(map[int]uint32{0: 1}),
		SampleEvery: 1,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Series.Len() < 2 {
		t.Fatalf("samples = %d, want >= 2", res.Series.Len())
	}
	last, _ := res.Series.Last()
	if last.States != res.FinalStates {
		t.Errorf("final sample states = %d, result = %d", last.States, res.FinalStates)
	}
	if last.MemBytes <= 0 {
		t.Error("modeled memory is non-positive")
	}
	if res.PeakMem < last.MemBytes {
		t.Error("peak memory below final memory")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() *Result {
		eng, err := NewEngine(Config{
			Topo:      NewLine(3),
			Prog:      pingProg(t),
			Algorithm: core.COWAlgorithm,
			Horizon:   100,
			NodeInit:  sendToInit(map[int]uint32{0: 1, 2: 1}),
			Failures:  FailurePlan{DropFirst: NodeSet([]int{1})},
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.FinalStates != b.FinalStates || a.Events != b.Events ||
		a.Stats.VM.Instructions != b.Stats.VM.Instructions || a.DScenarios.Cmp(b.DScenarios) != 0 {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
	fpa := scenarioFingerprints(a)
	fpb := scenarioFingerprints(b)
	if len(fpa) != len(fpb) {
		t.Fatalf("dscenario sets differ in size: %d vs %d", len(fpa), len(fpb))
	}
	for fp := range fpa {
		if !fpb[fp] {
			t.Fatal("dscenario fingerprints differ between identical runs")
		}
	}
}

// scenarioFingerprints explodes the run's dscenarios into a canonical
// fingerprint set.
func scenarioFingerprints(res *Result) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, sc := range res.Mapper.Explode(0) {
		h := uint64(14695981039346656037)
		for _, s := range sc {
			h ^= s.Fingerprint()
			h *= 1099511628211
		}
		out[h] = true
	}
	return out
}

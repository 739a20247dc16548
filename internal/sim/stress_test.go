package sim_test

import (
	"testing"

	"sde/internal/core"
	"sde/internal/isa"
	"sde/internal/sim"
	"sde/internal/vm"
)

// TestSameTimeEventDeterminism floods the scheduler with events at
// identical virtual times across many nodes and verifies two runs agree
// on every observable (the scheduler orders same-time events by state id,
// and per-state ties FIFO).
func TestSameTimeEventDeterminism(t *testing.T) {
	build := func() *isa.Program {
		b := isa.NewBuilder()
		boot := b.Func("boot")
		// Every node arms 4 timers all firing at t=10.
		boot.MovI(isa.R1, 10)
		for i := 0; i < 4; i++ {
			boot.MovI(isa.R2, uint32(i))
			boot.Timer("tick", isa.R1, isa.R2)
		}
		boot.Ret()
		tick := b.Func("tick")
		// Record processing order: order = order*4 + arg.
		tick.MovI(isa.R3, 0)
		tick.Load(isa.R4, isa.R3, 0x60)
		tick.MulI(isa.R4, isa.R4, 4)
		tick.Add(isa.R4, isa.R4, isa.R0)
		tick.Store(isa.R3, 0x60, isa.R4)
		// Everyone broadcasts once on the first tick.
		tick.Load(isa.R5, isa.R3, 0x61)
		tick.BrNZ(isa.R5, "skip")
		tick.MovI(isa.R5, 1)
		tick.Store(isa.R3, 0x61, isa.R5)
		tick.MovI(isa.R6, 0x300)
		tick.NodeID(isa.R7)
		tick.Store(isa.R6, 0, isa.R7)
		tick.MovI(isa.R8, isa.BroadcastAddr)
		tick.Send(isa.R8, isa.R6, 1)
		tick.Label("skip")
		tick.Ret()
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	run := func() (uint64, []uint64) {
		eng, err := sim.NewEngine(sim.Config{
			Topo:      sim.NewGrid(3, 3),
			Prog:      build(),
			Algorithm: core.SDSAlgorithm,
			Horizon:   100,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		var orders []uint64
		res.Mapper.ForEachState(func(s *vm.State) {
			orders = append(orders, s.LoadWord(0x60).ConstVal())
		})
		return res.Stats.VM.Instructions, orders
	}
	i1, o1 := run()
	i2, o2 := run()
	if i1 != i2 {
		t.Errorf("instruction counts differ: %d vs %d", i1, i2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("state counts differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("tick processing order differs at state %d: %d vs %d", i, o1[i], o2[i])
		}
	}
	// Per-state FIFO: the four same-time ticks must process as 0,1,2,3
	// (order word = ((0*4+1)*4+2)*4+3 = 27).
	for i, o := range o1 {
		if o != 27 {
			t.Errorf("state %d processed ticks out of FIFO order: %d", i, o)
		}
	}
}

// TestHaltedNodeStopsReceiving: a node that executes Halt must process no
// further events even when packets keep arriving.
func TestHaltedNodeStopsReceiving(t *testing.T) {
	b := isa.NewBuilder()
	boot := b.Func("boot")
	boot.NodeID(isa.R1)
	boot.EqI(isa.R2, isa.R1, 1)
	boot.BrNZ(isa.R2, "sender")
	boot.Halt() // node 0 halts immediately
	boot.Label("sender")
	boot.MovI(isa.R1, 10)
	boot.Timer("tx", isa.R1, isa.R0)
	boot.Ret()
	tx := b.Func("tx")
	tx.MovI(isa.R6, 0x300)
	tx.MovI(isa.R7, 0x99)
	tx.Store(isa.R6, 0, isa.R7)
	tx.MovI(isa.R5, 0)
	tx.Send(isa.R5, isa.R6, 1)
	tx.Ret()
	recv := b.Func("on_recv")
	recv.MovI(isa.R3, 0)
	recv.MovI(isa.R4, 1)
	recv.Store(isa.R3, 0x70, isa.R4)
	recv.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(sim.Config{
		Topo:      sim.NewLine(2),
		Prog:      prog,
		Algorithm: core.SDSAlgorithm,
		Horizon:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	var halted *vm.State
	res.Mapper.ForEachState(func(s *vm.State) {
		if s.NodeID() == 0 {
			halted = s
		}
	})
	if halted.Status() != vm.StatusHalted {
		t.Fatalf("node 0 status = %v, want halted", halted.Status())
	}
	if got := halted.LoadWord(0x70); !got.IsConst() || got.ConstVal() != 0 {
		t.Errorf("halted node ran its receive handler: %v", got)
	}
	// The radio-level reception is still on the record (footnote 2: the
	// network layer is ideal; the node just never processes it).
	if len(halted.History()) == 0 {
		t.Error("halted node's radio history is empty")
	}
}

// TestSendOnlyProgramWithoutRecvFn: programs without an on_recv function
// are legal; deliveries are consumed silently.
func TestSendOnlyProgramWithoutRecvFn(t *testing.T) {
	b := isa.NewBuilder()
	boot := b.Func("boot")
	boot.MovI(isa.R6, 0x300)
	boot.MovI(isa.R7, 1)
	boot.Store(isa.R6, 0, isa.R7)
	boot.MovI(isa.R8, isa.BroadcastAddr)
	boot.Send(isa.R8, isa.R6, 1)
	boot.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(sim.Config{
		Topo:      sim.NewLine(3),
		Prog:      prog,
		Algorithm: core.COWAlgorithm,
		Horizon:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted || len(res.Violations) != 0 {
		t.Fatalf("send-only run failed: %+v", res)
	}
}

// TestMissingBootFnRejected: configuration errors surface at construction.
func TestMissingBootFnRejected(t *testing.T) {
	b := isa.NewBuilder()
	b.Func("main").Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewEngine(sim.Config{
		Topo:      sim.NewLine(2),
		Prog:      prog,
		Algorithm: core.SDSAlgorithm,
	}); err == nil {
		t.Error("engine accepted a program without the boot function")
	}
}

// TestSolverStatsExposed: the result carries solver counters.
func TestSolverStatsExposed(t *testing.T) {
	b := isa.NewBuilder()
	boot := b.Func("boot")
	boot.Sym(isa.R1, "coin", 1)
	boot.BrNZ(isa.R1, "join")
	boot.Label("join")
	boot.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(sim.Config{
		Topo:      sim.NewLine(2),
		Prog:      prog,
		Algorithm: core.SDSAlgorithm,
		Horizon:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Solver.Queries == 0 {
		t.Error("no solver queries recorded despite symbolic branches")
	}
}

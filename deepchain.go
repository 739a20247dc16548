package sde

import "fmt"

// The deep-chain workload: a relay line whose source pushes packets down
// the chain through symbolically-dropped first receptions, followed by a
// long, purely concrete per-node mixing phase. The drop decisions give
// the exploration real dscenario structure (2^(K-1) rows under COB), but
// none of them are declared shardable — the workload exists to exercise
// and benchmark depth-horizon partitioning, the only dimension that can
// spread a zero-shardable-bits run across a pool or fleet.

// DeepChainOptions parameterises DeepChainScenario.
type DeepChainOptions struct {
	// K is the line length (source + K-1 relays; K >= 2).
	K int
	// Algorithm is the state mapping algorithm (default SDS).
	Algorithm Algorithm
	// Packets is how many packets the source emits (default 2; at least
	// 2 keeps every relay's first reception feasible in every drop
	// combination, so all 2^(K-1) dscenarios materialise).
	Packets uint32
	// Ticks is the length of the concrete mixing tail per node (default
	// 48): each node runs this many timer rounds of branch-free xorshift
	// arithmetic after the messaging phase.
	Ticks uint32
	// Iters is the inner arithmetic loop count per mixing tick (default
	// 256) — the knob that scales work per event without changing the
	// event structure.
	Iters uint32
}

const (
	dcAddrRemaining = 0x20
	dcAddrTicks     = 0x24
	dcAddrAcc       = 0x28
	dcAddrRecv      = 0x2C
	dcTxBuf         = 0x300
	dcMagic         = 0xDC
)

// DeepChainScenario builds the deep-chain workload. The returned
// scenario always has MaxShardBits() == 0.
func DeepChainScenario(opts DeepChainOptions) (Scenario, error) {
	if opts.K < 2 {
		return Scenario{}, fmt.Errorf("sde: deep chain needs K >= 2 (got %d)", opts.K)
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = SDS
	}
	if opts.Packets == 0 {
		opts.Packets = 2
	}
	if opts.Ticks == 0 {
		opts.Ticks = 48
	}
	if opts.Iters == 0 {
		opts.Iters = 256
	}
	k := opts.K
	// The messaging phase is over once the last packet (emitted at
	// 1 + 2*(Packets-1)) has crossed the whole chain; the mixing phase
	// starts after it, staggered per node so event times stay disjoint.
	mixStart := uint32(2*opts.Packets + uint32(k) + 2)
	period := uint32(k + 2)

	b := NewProgramBuilder()
	boot := b.Func("boot")
	boot.NodeID(R9)
	boot.BrNZ(R9, "relay")
	boot.MovI(R1, opts.Packets)
	boot.MovI(R2, 0)
	boot.Store(R2, dcAddrRemaining, R1)
	boot.MovI(R8, 1)
	boot.Timer("emit", R8, R0)
	boot.Label("relay")
	boot.MovI(R8, mixStart)
	boot.Add(R8, R8, R9)
	boot.Timer("mix", R8, R0)
	boot.Ret()

	emit := b.Func("emit")
	emit.MovI(R2, 0)
	emit.Load(R1, R2, dcAddrRemaining)
	emit.BrZ(R1, "done")
	emit.SubI(R1, R1, 1)
	emit.Store(R2, dcAddrRemaining, R1)
	emit.MovI(R6, dcTxBuf)
	emit.MovI(R7, dcMagic)
	emit.Store(R6, 0, R7)
	emit.Store(R6, 1, R1)
	emit.MovI(R5, 1)
	emit.Send(R5, R6, 2)
	emit.MovI(R8, 2)
	emit.Timer("emit", R8, R0)
	emit.Label("done")
	emit.Ret()

	// on_recv(src=r0, buf=r1, len=r2): count, forward down the chain.
	recv := b.Func("on_recv")
	recv.MovI(R3, 0)
	recv.Load(R4, R1, 0)
	recv.EqI(R5, R4, dcMagic)
	recv.BrZ(R5, "ignore")
	recv.Load(R6, R3, dcAddrRecv)
	recv.AddI(R6, R6, 1)
	recv.Store(R3, dcAddrRecv, R6)
	recv.NodeID(R9)
	recv.AddI(R9, R9, 1)
	recv.UltI(R5, R9, uint32(k))
	recv.BrZ(R5, "ignore")
	recv.Load(R7, R1, 1)
	recv.MovI(R6, dcTxBuf)
	recv.MovI(R8, dcMagic)
	recv.Store(R6, 0, R8)
	recv.Store(R6, 1, R7)
	recv.Send(R9, R6, 2)
	recv.Label("ignore")
	recv.Ret()

	// mix: the deep concrete tail — xorshift rounds on one accumulator
	// word, rescheduled Ticks times per node.
	mix := b.Func("mix")
	mix.MovI(R3, 0)
	mix.Load(R2, R3, dcAddrAcc)
	mix.NodeID(R4)
	mix.AddI(R2, R2, 0x9E37)
	mix.Add(R2, R2, R4)
	mix.MovI(R5, opts.Iters)
	mix.Label("loop")
	mix.ShlI(R6, R2, 13)
	mix.Xor(R2, R2, R6)
	mix.LShrI(R6, R2, 17)
	mix.Xor(R2, R2, R6)
	mix.ShlI(R6, R2, 5)
	mix.Xor(R2, R2, R6)
	mix.SubI(R5, R5, 1)
	mix.BrNZ(R5, "loop")
	mix.Store(R3, dcAddrAcc, R2)
	mix.Load(R6, R3, dcAddrTicks)
	mix.AddI(R6, R6, 1)
	mix.Store(R3, dcAddrTicks, R6)
	mix.UltI(R7, R6, opts.Ticks)
	mix.BrZ(R7, "stop")
	mix.MovI(R8, period)
	mix.Timer("mix", R8, R0)
	mix.Label("stop")
	mix.Ret()

	prog, err := b.Build()
	if err != nil {
		return Scenario{}, err
	}
	drops := make(map[int]bool, k-1)
	for n := 1; n < k; n++ {
		drops[n] = true
	}
	horizon := uint64(mixStart) + uint64(k) + uint64(opts.Ticks+2)*uint64(period)
	return CustomScenario(
		fmt.Sprintf("deep chain: %d-node line, %d packets, %d mixing ticks, drops on every relay (none shardable)",
			k, opts.Packets, opts.Ticks),
		CustomConfig{
			Topology:     Line(k),
			Program:      prog,
			Algorithm:    opts.Algorithm,
			HorizonTicks: horizon,
			Failures:     FailurePlan{DropFirst: drops},
			// ShardableNodes deliberately empty: depth-horizon
			// partitioning is the only way to spread this workload.
		})
}

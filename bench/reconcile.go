package main

import (
	"fmt"
	"math/rand"

	"sde"
	"sde/internal/expr"
	"sde/internal/vm"
)

// The reconcile workload: a two-way replicated-register reconciliation
// after "Experiments in Model-Checking Optimistic Replication
// Algorithms". Every replica of a full mesh draws one symbolic write
// (timestamp, value) at boot. Replicas then run pairwise anti-entropy
// sessions: the initiator sends its register, the responder merges by
// last-writer-wins (larger timestamp, ties broken by the origin's rank —
// symbolic compares that fork and query the solver) and replies with the
// merged register, which the initiator installs. After the last session
// each replica sends its register to its ring successor, which asserts
// that it equals its own. Every replica symbolically drops its first
// reception, so the dscenarios in which a session was lost and never
// repeated violate convergence and carry witnesses.
//
// Sessions are sequential and unicast on purpose. The engine hands a
// receiver the sender's path condition without checking the conjunction,
// so two replicas that compare the same timestamps concurrently — as they
// do when every replica broadcasts and every receiver compares — leave
// states whose path conditions are unsatisfiable, and Report.TestCases
// fails on them. With one session at a time every comparison is made by a
// replica that has inherited all earlier ones.

// Register and configuration words of a replica.
const (
	rrAddrTS     = 0x20 // current timestamp
	rrAddrVal    = 0x21 // current value
	rrAddrOrigin = 0x22 // rank of the replica the current write came from
	rrAddrRound  = 0x23 // sessions initiated so far

	rrCfgTSBase   = 0x30 // added to the symbolic timestamp
	rrCfgValSalt  = 0x31 // xored into the symbolic value
	rrCfgRank     = 0x32 // this replica's tie-break rank
	rrCfgFirst    = 0x33 // delay of the first session
	rrCfgPeriod   = 0x34 // session period
	rrCfgRounds   = 0x35 // sessions to initiate
	rrCfgCheckAt  = 0x36 // delay of the convergence check
	rrCfgCheckTo  = 0x37 // replica the convergence check is sent to
	rrCfgWrites   = 0x38 // writes to draw, the one at boot included
	rrCfgPartners = 0x40 // rrCfgPartners+r = partner of session r

	rrTxBuf = 0x300
)

// Packet layout (words) and kinds.
const (
	rrPktKind   = 0
	rrPktTS     = 1
	rrPktVal    = 2
	rrPktOrigin = 3
	rrPktLen    = 4

	rrKindRequest = 0x5E01 // initiator's register; the responder merges
	rrKindReply   = 0x5E02 // the merged register; the initiator installs it
	rrKindCheck   = 0x5E03 // final register; the receiver asserts equality
)

// Session timing in ticks: replicas start one stride apart and a round
// lasts one period, so a session (request and reply, 2 ticks each) ends
// before the next one starts.
const (
	rrStride = 10
	rrPeriod = 100
)

// rrTSBaseLow is the low byte of every timestamp base: alternating bits,
// the hardest case for the adders the solver builds.
const rrTSBaseLow = 0x55

// ReconcileOptions sizes the reconcile scenario. The structural size
// (replicas, rounds) is fixed by the workload; Seed only picks constants.
type ReconcileOptions struct {
	Replicas  int
	Rounds    int // sessions each replica initiates
	Writes    int // writes each replica draws, the one at boot included (at most Rounds)
	Writers   int // replicas, counted from the last, that draw more than the boot write
	Algorithm sde.Algorithm
	Seed      int64
}

// ReconcileConstants are the seed-chosen constants of one reconcile
// scenario. None of them changes which branches exist: the timestamp base
// and tie-break salt are shared by all replicas (so every ordering
// survives), the value salts only recolour payloads, and the offset shifts
// every send by the same amount. Nor may they change how much work a branch
// is: the low byte of the timestamp base decides the carry chains of every
// timestamp the solver compares (a base ending in 0x00 explores in 0.23 s,
// one ending in 0x55 in 0.35 s), and a carry out of it runs on through the
// ones above it (0x6f55 explores in 0.40 s, 0x2c55 in 0.32 s). So the low
// byte is fixed, the four bits above it are zero, where the carry dies, and
// the seed picks the bits above those, which fold away.
type ReconcileConstants struct {
	TSBase   uint32
	TieSalt  uint32
	ValSalts []uint32
	Offset   uint32
}

func reconcileConstants(replicas int, seed int64) ReconcileConstants {
	rng := rand.New(rand.NewSource(seed))
	c := ReconcileConstants{
		TSBase:  uint32(rng.Intn(1<<12))<<12 | rrTSBaseLow,
		TieSalt: uint32(rng.Intn(1 << 16)),
		Offset:  uint32(1 + rng.Intn(50)),
	}
	for n := 0; n < replicas; n++ {
		c.ValSalts = append(c.ValSalts, uint32(rng.Intn(1<<8)))
	}
	return c
}

// ReconcileProgram builds the replica software.
func ReconcileProgram() (*sde.Program, error) {
	b := sde.NewProgramBuilder()

	boot := b.Func("boot")
	boot.MovI(sde.R3, 0)
	boot.Sym(sde.R1, "ts", 8)
	boot.Load(sde.R4, sde.R3, rrCfgTSBase)
	boot.Add(sde.R1, sde.R1, sde.R4)
	boot.Store(sde.R3, rrAddrTS, sde.R1)
	boot.Sym(sde.R2, "val", 8)
	boot.Load(sde.R4, sde.R3, rrCfgValSalt)
	boot.Xor(sde.R2, sde.R2, sde.R4)
	boot.Store(sde.R3, rrAddrVal, sde.R2)
	boot.Load(sde.R4, sde.R3, rrCfgRank)
	boot.Store(sde.R3, rrAddrOrigin, sde.R4)
	boot.Load(sde.R4, sde.R3, rrCfgFirst)
	boot.Timer("sync", sde.R4, sde.R0)
	boot.Load(sde.R4, sde.R3, rrCfgCheckAt)
	boot.Timer("check", sde.R4, sde.R0)
	boot.Ret()

	// publish sends the replica's register to the node in R8 under the
	// packet kind in R7.
	publish := b.Func("publish")
	publish.MovI(sde.R3, 0)
	publish.MovI(sde.R6, rrTxBuf)
	publish.Store(sde.R6, rrPktKind, sde.R7)
	publish.Load(sde.R5, sde.R3, rrAddrTS)
	publish.Store(sde.R6, rrPktTS, sde.R5)
	publish.Load(sde.R5, sde.R3, rrAddrVal)
	publish.Store(sde.R6, rrPktVal, sde.R5)
	publish.Load(sde.R5, sde.R3, rrAddrOrigin)
	publish.Store(sde.R6, rrPktOrigin, sde.R5)
	publish.Send(sde.R8, sde.R6, rrPktLen)
	publish.Ret()

	// sync opens session number rrAddrRound. While the replica still has
	// writes to draw it first draws one; like any write it takes effect
	// only if it is newer than the register.
	sync := b.Func("sync")
	sync.MovI(sde.R3, 0)
	sync.Load(sde.R4, sde.R3, rrAddrRound)
	sync.BrZ(sde.R4, "open")
	sync.Load(sde.R5, sde.R3, rrCfgWrites)
	sync.Ult(sde.R5, sde.R4, sde.R5)
	sync.BrZ(sde.R5, "open")
	sync.Sym(sde.R1, "ts", 8)
	sync.Load(sde.R5, sde.R3, rrCfgTSBase)
	sync.Add(sde.R1, sde.R1, sde.R5)
	sync.Sym(sde.R2, "val", 8)
	sync.Load(sde.R5, sde.R3, rrCfgValSalt)
	sync.Xor(sde.R2, sde.R2, sde.R5)
	sync.Load(sde.R12, sde.R3, rrAddrTS)
	sync.Ult(sde.R5, sde.R12, sde.R1)
	sync.BrZ(sde.R5, "open")
	sync.Store(sde.R3, rrAddrTS, sde.R1)
	sync.Store(sde.R3, rrAddrVal, sde.R2)
	sync.Load(sde.R5, sde.R3, rrCfgRank)
	sync.Store(sde.R3, rrAddrOrigin, sde.R5)
	sync.Label("open")
	sync.AddI(sde.R5, sde.R4, rrCfgPartners)
	sync.Load(sde.R8, sde.R5, 0)
	sync.AddI(sde.R4, sde.R4, 1)
	sync.Store(sde.R3, rrAddrRound, sde.R4)
	sync.Load(sde.R5, sde.R3, rrCfgRounds)
	sync.Ult(sde.R5, sde.R4, sde.R5)
	sync.BrZ(sde.R5, "last")
	sync.Load(sde.R5, sde.R3, rrCfgPeriod)
	sync.Timer("sync", sde.R5, sde.R0)
	sync.Label("last")
	sync.MovI(sde.R7, rrKindRequest)
	sync.Call("publish")
	sync.Ret()

	check := b.Func("check")
	check.MovI(sde.R3, 0)
	check.Load(sde.R8, sde.R3, rrCfgCheckTo)
	check.MovI(sde.R7, rrKindCheck)
	check.Call("publish")
	check.Ret()

	// on_recv(src=r0, buf=r1, len=r2)
	recv := b.Func("on_recv")
	recv.MovI(sde.R3, 0)
	recv.Load(sde.R4, sde.R1, rrPktKind)
	recv.Load(sde.R9, sde.R1, rrPktTS)
	recv.Load(sde.R10, sde.R1, rrPktVal)
	recv.Load(sde.R11, sde.R1, rrPktOrigin)
	recv.Load(sde.R12, sde.R3, rrAddrTS)
	recv.EqI(sde.R5, sde.R4, rrKindReply)
	recv.BrNZ(sde.R5, "install")
	recv.EqI(sde.R5, sde.R4, rrKindCheck)
	recv.BrNZ(sde.R5, "converged")
	recv.EqI(sde.R5, sde.R4, rrKindRequest)
	recv.BrZ(sde.R5, "done")
	// Last writer wins: a larger timestamp, or an equal one from a
	// higher-ranked origin.
	recv.Ult(sde.R5, sde.R12, sde.R9)
	recv.BrNZ(sde.R5, "adopt")
	recv.Eq(sde.R5, sde.R12, sde.R9)
	recv.BrZ(sde.R5, "reply")
	recv.Load(sde.R13, sde.R3, rrAddrOrigin)
	recv.Ult(sde.R5, sde.R13, sde.R11)
	recv.BrZ(sde.R5, "reply")
	recv.Label("adopt")
	recv.Store(sde.R3, rrAddrTS, sde.R9)
	recv.Store(sde.R3, rrAddrVal, sde.R10)
	recv.Store(sde.R3, rrAddrOrigin, sde.R11)
	recv.Label("reply")
	recv.Mov(sde.R8, sde.R0)
	recv.MovI(sde.R7, rrKindReply)
	recv.Call("publish")
	recv.Ret()
	recv.Label("install")
	recv.Store(sde.R3, rrAddrTS, sde.R9)
	recv.Store(sde.R3, rrAddrVal, sde.R10)
	recv.Store(sde.R3, rrAddrOrigin, sde.R11)
	recv.Ret()
	recv.Label("converged")
	recv.Load(sde.R13, sde.R3, rrAddrVal)
	recv.Eq(sde.R5, sde.R12, sde.R9)
	recv.Eq(sde.R6, sde.R13, sde.R10)
	recv.And(sde.R5, sde.R5, sde.R6)
	recv.Assert(sde.R5, "reconcile: replicas diverged")
	recv.Label("done")
	recv.Ret()

	return b.Build()
}

// ReconcileScenario builds the reconcile scenario and returns it with the
// constants the seed chose. In round r replica n opens a session with
// replica n+1+(r mod (k-1)), so over k-1 rounds it has initiated one with
// every peer.
func ReconcileScenario(opts ReconcileOptions) (sde.Scenario, ReconcileConstants, error) {
	k := opts.Replicas
	if k < 2 || opts.Rounds < 1 {
		return sde.Scenario{}, ReconcileConstants{}, fmt.Errorf("reconcile: need >= 2 replicas and >= 1 round (got %d, %d)", k, opts.Rounds)
	}
	prog, err := ReconcileProgram()
	if err != nil {
		return sde.Scenario{}, ReconcileConstants{}, err
	}
	c := reconcileConstants(k, opts.Seed)
	checkAt := c.Offset + uint32(opts.Rounds)*rrPeriod
	nodes := make([]int, k)
	for n := range nodes {
		nodes[n] = n
	}
	s, err := sde.CustomScenario(
		fmt.Sprintf("reconcile: %d-replica mesh, %d session rounds, %s", k, opts.Rounds, opts.Algorithm),
		sde.CustomConfig{
			Topology:     sde.FullMesh(k),
			Program:      prog,
			Algorithm:    opts.Algorithm,
			HorizonTicks: uint64(checkAt) + uint64(k)*rrStride + rrPeriod,
			Failures:     sde.FailurePlan{DropFirst: sde.NodeSet(nodes)},
			// Every replica is sent a request in round 0 whatever was
			// dropped before, so every first reception materialises.
			ShardableNodes: nodes,
			NodeInit: func(node int, s *vm.State, eb *expr.Builder) {
				cw := func(addr uint32, v uint32) {
					s.StoreWord(addr, eb.Const(uint64(v), vm.WordBits))
				}
				cw(rrCfgTSBase, c.TSBase)
				cw(rrCfgValSalt, c.ValSalts[node])
				cw(rrCfgRank, c.TieSalt+uint32(node))
				cw(rrCfgFirst, c.Offset+uint32(node)*rrStride)
				cw(rrCfgPeriod, rrPeriod)
				cw(rrCfgRounds, uint32(opts.Rounds))
				if node >= k-opts.Writers {
					cw(rrCfgWrites, uint32(opts.Writes))
				}
				cw(rrCfgCheckAt, checkAt+uint32(node)*rrStride)
				cw(rrCfgCheckTo, uint32((node+1)%k))
				for r := 0; r < opts.Rounds; r++ {
					cw(rrCfgPartners+uint32(r), uint32((node+1+r%(k-1))%k))
				}
			},
		})
	return s, c, err
}

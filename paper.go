package sde

import (
	"fmt"
	"sort"

	"sde/internal/rime"
	"sde/internal/sim"
)

// GridCollectOptions parameterises the paper's evaluation workload
// (§IV-A): a dim x dim grid where the bottom-right node sends a data
// packet every second towards the sink in the top-left corner along a
// preconfigured staircase route; every transmission is perceived by the
// sender's neighbours; configured nodes symbolically drop their first
// received packet.
type GridCollectOptions struct {
	// Dim is the grid edge length; the paper uses 5, 7, and 10.
	Dim int
	// Algorithm is the state mapping algorithm (default SDS).
	Algorithm Algorithm
	// Packets is the number of data packets the source emits (default
	// 10 — one per second for the paper's 10-second simulation).
	Packets uint32
	// IntervalTicks is the send period (default 1000 ticks = 1 s at the
	// 1 ms tick the built-in scenarios use).
	IntervalTicks uint64
	// DropNodes selects which nodes symbolically drop their first
	// packet: DropRoute (default) arms the data-path nodes; DropRouteAndNeighbors
	// additionally arms their radio neighbours (the paper's full setup);
	// DropNone disables failures.
	DropNodes DropSelection
	// MaxDropNodes caps how many of the selected nodes are armed,
	// counted from the source end of the route (0 = no cap). Each armed
	// node doubles the dscenario space, so this is the scale knob that
	// keeps a sweep within a time budget.
	MaxDropNodes int
	// Caps bound the run (optional).
	Caps Caps
}

// DropSelection names a node set for the symbolic drop failure.
type DropSelection int

// Drop selections for GridCollectOptions.
const (
	DropRoute             DropSelection = iota // data-path nodes (default)
	DropRouteAndNeighbors                      // data path plus its radio neighbours
	DropNone                                   // no failures: a single concrete run
)

// String returns a short name for the selection.
func (d DropSelection) String() string {
	switch d {
	case DropRoute:
		return "route"
	case DropRouteAndNeighbors:
		return "route+neighbors"
	case DropNone:
		return "none"
	default:
		return fmt.Sprintf("DropSelection(%d)", int(d))
	}
}

// GridCollectScenario builds the paper's grid data-collection scenario.
func GridCollectScenario(opts GridCollectOptions) (Scenario, error) {
	if opts.Dim < 2 {
		return Scenario{}, fmt.Errorf("sde: grid dimension %d too small", opts.Dim)
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = SDS
	}
	if opts.Packets == 0 {
		opts.Packets = 10
	}
	if opts.IntervalTicks == 0 {
		opts.IntervalTicks = 1000
	}
	g := sim.NewGrid(opts.Dim, opts.Dim)
	source, sink := g.K()-1, 0
	route := g.StaircaseRoute(source, sink)

	prog, err := rime.CollectProgram()
	if err != nil {
		return Scenario{}, fmt.Errorf("sde: %w", err)
	}
	cc := rime.CollectConfig{
		Source:   source,
		Sink:     sink,
		Route:    route,
		Interval: opts.IntervalTicks,
		Packets:  opts.Packets,
	}
	nodeInit, err := cc.NodeInit(g.K())
	if err != nil {
		return Scenario{}, fmt.Errorf("sde: %w", err)
	}
	var dropNodes []int
	switch opts.DropNodes {
	case DropRoute:
		dropNodes = route
	case DropRouteAndNeighbors:
		dropNodes = sim.RouteNeighborhood(g, route)
	case DropNone:
	default:
		return Scenario{}, fmt.Errorf("sde: unknown drop selection %d", opts.DropNodes)
	}
	if opts.MaxDropNodes > 0 && len(dropNodes) > opts.MaxDropNodes {
		dropNodes = dropNodes[:opts.MaxDropNodes]
	}
	var failures FailurePlan
	if len(dropNodes) > 0 {
		failures.DropFirst = sim.NodeSet(dropNodes)
	}
	return Scenario{
		shardable: shardableNodes(g, source, failures.DropFirst),
		desc: fmt.Sprintf("grid %dx%d collect, %d packets, %s, drops=%v",
			opts.Dim, opts.Dim, opts.Packets, opts.Algorithm, opts.DropNodes),
		cfg: sim.Config{
			Topo:      g,
			Prog:      prog,
			Algorithm: opts.Algorithm,
			Horizon:   opts.IntervalTicks*uint64(opts.Packets) + opts.IntervalTicks,
			NodeInit:  nodeInit,
			Failures:  failures,
			Caps:      opts.Caps,
		},
	}, nil
}

// LineCollectOptions parameterises a k-node line variant of the collect
// scenario — the topology of the paper's §II-B examples.
type LineCollectOptions struct {
	K         int
	Algorithm Algorithm
	Packets   uint32
	// Failures applies arbitrary failure models (optional).
	Failures FailurePlan
	Caps     Caps
}

// LineCollectScenario builds a line-topology collect scenario: node K-1
// sends towards the sink at node 0.
func LineCollectScenario(opts LineCollectOptions) (Scenario, error) {
	if opts.K < 2 {
		return Scenario{}, fmt.Errorf("sde: line length %d too small", opts.K)
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = SDS
	}
	if opts.Packets == 0 {
		opts.Packets = 10
	}
	route := make([]int, opts.K)
	for i := range route {
		route[i] = opts.K - 1 - i
	}
	prog, err := rime.CollectProgram()
	if err != nil {
		return Scenario{}, fmt.Errorf("sde: %w", err)
	}
	cc := rime.CollectConfig{
		Source:   opts.K - 1,
		Sink:     0,
		Route:    route,
		Interval: 1000,
		Packets:  opts.Packets,
	}
	nodeInit, err := cc.NodeInit(opts.K)
	if err != nil {
		return Scenario{}, fmt.Errorf("sde: %w", err)
	}
	topo := sim.NewLine(opts.K)
	return Scenario{
		shardable: shardableNodes(topo, opts.K-1, opts.Failures.DropFirst),
		desc:      fmt.Sprintf("line %d collect, %d packets, %s", opts.K, opts.Packets, opts.Algorithm),
		cfg: sim.Config{
			Topo:      topo,
			Prog:      prog,
			Algorithm: opts.Algorithm,
			Horizon:   1000*uint64(opts.Packets) + 1000,
			NodeInit:  nodeInit,
			Failures:  opts.Failures,
			Caps:      opts.Caps,
		},
	}, nil
}

// RunicastOptions parameterises the reliable-unicast workload: a sender
// transmits acknowledged, retransmitted DATA packets to a neighbour.
// Under symbolic drops the protocol heals, so SDE proves the delivery
// assertions hold on every explored path.
type RunicastOptions struct {
	K         int // line length; node K-1 sends to node K-2
	Algorithm Algorithm
	Packets   uint32
	Failures  FailurePlan
	Caps      Caps
}

// RunicastScenario builds a reliable-unicast scenario on a line.
func RunicastScenario(opts RunicastOptions) (Scenario, error) {
	if opts.K < 2 {
		return Scenario{}, fmt.Errorf("sde: line length %d too small", opts.K)
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = SDS
	}
	if opts.Packets == 0 {
		opts.Packets = 2
	}
	prog, err := rime.RunicastProgram()
	if err != nil {
		return Scenario{}, fmt.Errorf("sde: %w", err)
	}
	rc := rime.RunicastConfig{
		Sender:   opts.K - 1,
		Receiver: opts.K - 2,
		Interval: 100,
		Packets:  opts.Packets,
	}
	topo := sim.NewLine(opts.K)
	return Scenario{
		shardable: shardableNodes(topo, rc.Sender, opts.Failures.DropFirst),
		desc: fmt.Sprintf("line %d runicast, %d packets, %s",
			opts.K, opts.Packets, opts.Algorithm),
		cfg: sim.Config{
			Topo:      topo,
			Prog:      prog,
			Algorithm: opts.Algorithm,
			Horizon:   100*uint64(opts.Packets) + rime.RuRTO*(rime.RuMaxRetries+3) + 200,
			NodeInit:  rc.NodeInit(),
			Failures:  opts.Failures,
			Caps:      opts.Caps,
		},
	}, nil
}

// ThresholdOptions parameterises the symbolic-sensor workload: the
// source samples a *symbolic* reading (§II-A "symbolic packet header")
// and broadcasts it; nodes alarm and forward only above-threshold
// readings, so every node's behaviour branches on the same symbolic
// variable and test cases carry cross-node-consistent concrete readings.
type ThresholdOptions struct {
	K         int // line length; node K-1 samples and broadcasts
	Algorithm Algorithm
	Threshold uint64 // alarm threshold for the 16-bit reading
	Caps      Caps
}

// ThresholdScenario builds the symbolic-sensor-data scenario on a line.
func ThresholdScenario(opts ThresholdOptions) (Scenario, error) {
	if opts.K < 2 {
		return Scenario{}, fmt.Errorf("sde: line length %d too small", opts.K)
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = SDS
	}
	if opts.Threshold == 0 {
		opts.Threshold = 500
	}
	prog, err := rime.ThresholdProgram()
	if err != nil {
		return Scenario{}, fmt.Errorf("sde: %w", err)
	}
	tc := rime.ThresholdConfig{Source: opts.K - 1, Threshold: opts.Threshold, Interval: 10}
	return Scenario{
		desc: fmt.Sprintf("line %d threshold alarm (symbolic reading > %d), %s",
			opts.K, opts.Threshold, opts.Algorithm),
		cfg: sim.Config{
			Topo:      sim.NewLine(opts.K),
			Prog:      prog,
			Algorithm: opts.Algorithm,
			Horizon:   500,
			NodeInit:  tc.NodeInit(),
			Caps:      opts.Caps,
		},
	}, nil
}

// DiscoveryOptions parameterises the neighbour-discovery workload, the
// other flooding-class protocol §IV-C names. Every node beacons, so every
// node is a sender and almost nothing is a bystander.
type DiscoveryOptions struct {
	Topology  Topology
	Algorithm Algorithm
	Rounds    uint32 // beacons per node (default 1)
	// DropAll arms the symbolic drop on every node.
	DropAll bool
	Caps    Caps
}

// DiscoveryScenario builds a neighbour-discovery scenario on an arbitrary
// topology.
func DiscoveryScenario(opts DiscoveryOptions) (Scenario, error) {
	if opts.Topology == nil {
		return Scenario{}, fmt.Errorf("sde: discovery scenario needs a topology")
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = SDS
	}
	if opts.Rounds == 0 {
		opts.Rounds = 1
	}
	prog, err := rime.DiscoveryProgram()
	if err != nil {
		return Scenario{}, fmt.Errorf("sde: %w", err)
	}
	dc := rime.DiscoveryConfig{Interval: 1000, Rounds: opts.Rounds}
	var failures FailurePlan
	if opts.DropAll {
		nodes := make([]int, opts.Topology.K())
		for n := range nodes {
			nodes[n] = n
		}
		failures.DropFirst = sim.NodeSet(nodes)
	}
	return Scenario{
		// Every node beacons unconditionally, so every armed node's drop
		// decision materialises: all are shardable.
		shardable: allArmed(failures.DropFirst),
		desc: fmt.Sprintf("%s discovery, %d rounds, %s",
			opts.Topology.Name(), opts.Rounds, opts.Algorithm),
		cfg: sim.Config{
			Topo:      opts.Topology,
			Prog:      prog,
			Algorithm: opts.Algorithm,
			Horizon:   1000*uint64(opts.Rounds) + 2000,
			NodeInit:  dc.NodeInit(),
			Failures:  failures,
			Caps:      opts.Caps,
		},
	}, nil
}

func allArmed(armed map[int]bool) []int {
	out := make([]int, 0, len(armed))
	for n := range armed {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// shardableNodes returns the armed drop nodes whose first reception is
// guaranteed in every execution — the source's radio neighbours, which
// always perceive its unconditional first broadcast. Only their decisions
// partition the dscenario space soundly (see RunScenarioSharded).
func shardableNodes(topo sim.Topology, source int, armed map[int]bool) []int {
	var out []int
	for _, nb := range topo.Neighbors(source) {
		if armed[nb] {
			out = append(out, nb)
		}
	}
	return out
}

// FloodOptions parameterises the §IV-C limitation workload: network-wide
// flooding on a dense topology, where the bystander-saving structure of
// COW and SDS buys little.
type FloodOptions struct {
	K         int
	Algorithm Algorithm
	Packets   uint32
	// DropAll arms the symbolic drop on every node but the source.
	DropAll bool
	Caps    Caps
}

// FloodScenario builds a full-mesh flooding scenario.
func FloodScenario(opts FloodOptions) (Scenario, error) {
	if opts.K < 2 {
		return Scenario{}, fmt.Errorf("sde: mesh size %d too small", opts.K)
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = SDS
	}
	if opts.Packets == 0 {
		opts.Packets = 1
	}
	prog, err := rime.FloodProgram()
	if err != nil {
		return Scenario{}, fmt.Errorf("sde: %w", err)
	}
	fc := rime.FloodConfig{Source: 0, Interval: 1000, Packets: opts.Packets}
	var failures FailurePlan
	if opts.DropAll {
		nodes := make([]int, 0, opts.K-1)
		for n := 1; n < opts.K; n++ {
			nodes = append(nodes, n)
		}
		failures.DropFirst = sim.NodeSet(nodes)
	}
	mesh := sim.NewFullMesh(opts.K)
	return Scenario{
		shardable: shardableNodes(mesh, 0, failures.DropFirst),
		desc:      fmt.Sprintf("mesh %d flood, %d packets, %s", opts.K, opts.Packets, opts.Algorithm),
		cfg: sim.Config{
			Topo:      mesh,
			Prog:      prog,
			Algorithm: opts.Algorithm,
			Horizon:   1000*uint64(opts.Packets) + 1000,
			NodeInit:  fc.NodeInit(),
			Failures:  failures,
			Caps:      opts.Caps,
		},
	}, nil
}

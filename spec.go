package sde

import (
	"fmt"
	"strconv"
	"strings"
)

// ScenarioSpec is the declarative, JSON-serialisable form of a built-in
// scenario: what a client POSTs to the exploration service's job API and
// what a work lease carries to a remote worker, which rebuilds the exact
// same Scenario from it. Both sides constructing the scenario from one
// spec — rather than shipping live programs or configs — is what keeps
// the wire protocol small and the distributed run's outputs bit-identical
// to an in-process one.
//
// The zero value of every optional field selects the same default the
// matching constructor would.
type ScenarioSpec struct {
	// Workload names the scenario family: collect, flood, discovery,
	// runicast, threshold, or deepchain.
	Workload string `json:"workload"`
	// Topology is kind:size — grid:5, line:4, or mesh:4 (grid sizes are
	// the edge length).
	Topology string `json:"topology"`
	// Algorithm is the state mapping algorithm: cob, cow, or sds
	// (default sds).
	Algorithm string `json:"algorithm,omitempty"`
	// Packets is the packet count for sending workloads, and the round
	// count for discovery.
	Packets uint32 `json:"packets,omitempty"`
	// Drops selects symbolic first-packet drops: route (default),
	// route+neighbors, or none.
	Drops string `json:"drops,omitempty"`
	// Failures lists extra failures as kind:node pairs, e.g.
	// "dup:0,reboot:3" (line topologies only).
	Failures string `json:"failures,omitempty"`
	// Threshold is the alarm threshold of the threshold workload
	// (default 500).
	Threshold uint64 `json:"threshold,omitempty"`
	// Ticks is the mixing-tail length of the deepchain workload
	// (default 48).
	Ticks uint32 `json:"ticks,omitempty"`
	// Iters is the per-tick arithmetic loop count of the deepchain
	// workload (default 256).
	Iters uint32 `json:"iters,omitempty"`
	// MaxStates aborts the run when live states exceed it (0 = unlimited).
	MaxStates int `json:"max_states,omitempty"`
	// Layers is the run's layer set, in Layers' textual form — e.g.
	// "no-qopt,no-speculate"; unnamed layers keep their default. It is part
	// of the job: every lease of a fleet job runs with exactly these
	// layers, whichever worker executes it.
	Layers Layers `json:"layers"`
}

// String renders the spec compactly for logs.
func (sp ScenarioSpec) String() string {
	return fmt.Sprintf("%s/%s algo=%s packets=%d drops=%s layers=%s",
		sp.Workload, sp.Topology, sp.Algorithm, sp.Packets, sp.Drops, sp.Layers)
}

// ParseAlgorithm maps a case-insensitive algorithm name (cob, cow, sds)
// to the Algorithm constant.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "cob":
		return COB, nil
	case "cow":
		return COW, nil
	case "sds":
		return SDS, nil
	default:
		return 0, fmt.Errorf("sde: unknown algorithm %q (want cob, cow, or sds)", s)
	}
}

// ParseTopology splits a kind:size topology spec.
func ParseTopology(s string) (kind string, size int, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 || parts[0] == "" {
		return "", 0, fmt.Errorf("sde: topology %q: want kind:size", s)
	}
	size, err = strconv.Atoi(parts[1])
	if err != nil || size < 2 {
		return "", 0, fmt.Errorf("sde: topology %q: bad size", s)
	}
	return parts[0], size, nil
}

// ParseFailurePlan parses a kind:node failure list ("dup:0,reboot:3",
// kinds drop, dup, reboot). The empty string is an empty plan.
func ParseFailurePlan(s string) (FailurePlan, error) {
	var plan FailurePlan
	if s == "" {
		return plan, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return plan, fmt.Errorf("sde: failure %q: want kind:node", part)
		}
		node, err := strconv.Atoi(kv[1])
		if err != nil {
			return plan, fmt.Errorf("sde: failure %q: bad node id", part)
		}
		switch kv[0] {
		case "drop":
			plan.DropFirst = addFailureNode(plan.DropFirst, node)
		case "dup":
			plan.DuplicateFirst = addFailureNode(plan.DuplicateFirst, node)
		case "reboot":
			plan.RebootOnFirst = addFailureNode(plan.RebootOnFirst, node)
		default:
			return plan, fmt.Errorf("sde: unknown failure kind %q", kv[0])
		}
	}
	return plan, nil
}

func addFailureNode(set map[int]bool, node int) map[int]bool {
	if set == nil {
		set = make(map[int]bool)
	}
	set[node] = true
	return set
}

// Scenario materialises the spec through the matching built-in
// constructor. Two processes materialising the same spec get scenarios
// whose explorations are bit-identical — the foundation of the
// coordinator/worker protocol.
func (sp ScenarioSpec) Scenario() (Scenario, error) {
	algoName := sp.Algorithm
	if algoName == "" {
		algoName = "sds"
	}
	algo, err := ParseAlgorithm(algoName)
	if err != nil {
		return Scenario{}, err
	}
	kind, size, err := ParseTopology(sp.Topology)
	if err != nil {
		return Scenario{}, err
	}
	extra, err := ParseFailurePlan(sp.Failures)
	if err != nil {
		return Scenario{}, err
	}
	drops := sp.Drops
	if drops == "" {
		drops = "route"
	}
	workload := sp.Workload
	if workload == "" {
		workload = "collect"
	}

	var s Scenario
	switch {
	case workload == "collect" && kind == "grid":
		sel := DropRoute
		switch drops {
		case "route":
		case "route+neighbors":
			sel = DropRouteAndNeighbors
		case "none":
			sel = DropNone
		default:
			return Scenario{}, fmt.Errorf("sde: unknown drop selection %q", drops)
		}
		if len(extra.DuplicateFirst)+len(extra.RebootOnFirst)+len(extra.DropFirst) > 0 {
			return Scenario{}, fmt.Errorf("sde: failures are only supported with line topologies")
		}
		s, err = GridCollectScenario(GridCollectOptions{
			Dim: size, Algorithm: algo, Packets: sp.Packets, DropNodes: sel,
		})
	case workload == "collect" && kind == "line":
		if drops == "route" {
			nodes := make([]int, size)
			for i := range nodes {
				nodes[i] = i
			}
			extra.DropFirst = NodeSet(nodes)
		}
		s, err = LineCollectScenario(LineCollectOptions{
			K: size, Algorithm: algo, Packets: sp.Packets, Failures: extra,
		})
	case workload == "flood" && kind == "mesh":
		s, err = FloodScenario(FloodOptions{
			K: size, Algorithm: algo, Packets: sp.Packets, DropAll: drops != "none",
		})
	case workload == "runicast" && kind == "line":
		s, err = RunicastScenario(RunicastOptions{
			K: size, Algorithm: algo, Packets: sp.Packets, Failures: extra,
		})
	case workload == "deepchain" && kind == "line":
		if len(extra.DuplicateFirst)+len(extra.RebootOnFirst)+len(extra.DropFirst) > 0 {
			return Scenario{}, fmt.Errorf("sde: deepchain has a fixed failure plan")
		}
		s, err = DeepChainScenario(DeepChainOptions{
			K: size, Algorithm: algo, Packets: sp.Packets,
			Ticks: sp.Ticks, Iters: sp.Iters,
		})
	case workload == "threshold" && kind == "line":
		s, err = ThresholdScenario(ThresholdOptions{
			K: size, Algorithm: algo, Threshold: sp.Threshold,
		})
	case workload == "discovery":
		var topo Topology
		switch kind {
		case "grid":
			topo = Grid(size, size)
		case "line":
			topo = Line(size)
		case "mesh":
			topo = FullMesh(size)
		default:
			return Scenario{}, fmt.Errorf("sde: unknown topology kind %q", kind)
		}
		s, err = DiscoveryScenario(DiscoveryOptions{
			Topology: topo, Algorithm: algo, Rounds: sp.Packets, DropAll: drops != "none",
		})
	default:
		return Scenario{}, fmt.Errorf("sde: unsupported combination workload=%q topology=%q",
			workload, kind)
	}
	if err != nil {
		return Scenario{}, err
	}
	if sp.MaxStates > 0 {
		s = s.WithCaps(Caps{MaxStates: sp.MaxStates})
	}
	if err := sp.Layers.Validate(); err != nil {
		return Scenario{}, fmt.Errorf("sde: %w", err)
	}
	s.cfg.Layers = sp.Layers
	return s, nil
}

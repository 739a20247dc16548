package sim

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// Layers is the set of optional execution layers of a run — the only
// place the layer set is represented. The zero value is the default
// stack: compiled fast path, speculation and query optimizer on, reduction
// off.
//
// Declaration order is the soundness-triage order, bottom layer first:
// when a run looks wrong, flip the first switch whose output you distrust
// and compare. Compile, Speculate and Qopt preserve state fingerprints,
// dscenario sets, violations and test cases bit for bit, so any change in
// output names the faulty layer. Reduce preserves the
// violation set and one test case per symmetry orbit but explores fewer
// states, so only a changed violation set indicts it.
//
// A Layers value is fixed when the engine is created (CREATE) and never
// consulted again: newEngineShell turns it into the engine's pool, hooks
// and reducer, and exploration (BUILD) reads only those.
type Layers struct {
	// NoCompile runs every instruction through the per-instruction
	// symbolic interpreter instead of the basic-block compiled fast path.
	// The IR is derived at load time and never serialized, so the switch
	// may differ between a checkpointed run and its resumption.
	NoCompile bool
	// Reduce canonicalizes failure-decision branches under the topology's
	// automorphism group (stabilized by Config.Symmetry; internal/reduce).
	// It is COB-only: its pruning rule needs the decided context COB's
	// shared per-dscenario path condition provides, so under COW and SDS
	// the switch builds nothing and changes nothing. Violations of pruned
	// branches are synthesized back onto concrete node ids, marked
	// Synthesized. Reduction state is derived and never serialized.
	Reduce bool
	// NoSpeculate solves every branch feasibility query synchronously on
	// the interpreter thread instead of overlapping it with execution.
	NoSpeculate bool
	// SpecWorkers sizes the speculation solver pool (0 = one per CPU). It
	// cannot change an output, only how fast it arrives.
	SpecWorkers int
	// NoQopt switches off the three query-optimizer stages (independence
	// slicing, algebraic rewriting, implied-value concretization);
	// solver.Options has per-stage switches for finer bisection.
	NoQopt bool
}

// layerSwitch is one on/off layer: its name in flags and the textual
// form, and the Layers field it drives.
type layerSwitch struct {
	name   string
	field  *bool
	negate bool // the field is the switch's negation: the layer is on by default
	usage  string
}

// switches lists the on/off layers in declaration (triage) order.
func (l *Layers) switches() []layerSwitch {
	return []layerSwitch{
		{"compile", &l.NoCompile, true, "basic-block compiled fast path (default true)"},
		{"reduce", &l.Reduce, false, "symmetry reduction of failure decisions, COB only (a no-op under COW/SDS); preserves violations, not state counts (default false)"},
		{"speculate", &l.NoSpeculate, true, "speculative-fork solver pipeline (default true)"},
		{"qopt", &l.NoQopt, true, "query-optimization pipeline: slicing, rewriting, concretization (default true)"},
	}
}

const specWorkersName = "spec-workers"

// Validate rejects a layer set no engine can be built from.
func (l Layers) Validate() error {
	if l.SpecWorkers < 0 {
		return fmt.Errorf("layers: SpecWorkers (-%s) must be >= 0 (got %d); 0 means one per CPU",
			specWorkersName, l.SpecWorkers)
	}
	return nil
}

// String renders the full layer set in declaration order, e.g.
// "compile,no-reduce,speculate,qopt" for the zero value, with
// ",spec-workers=N" appended when the pool is sized explicitly. It is the
// one textual form: logs print it, JSON carries it, UnmarshalText reads it.
func (l Layers) String() string {
	var b strings.Builder
	for i, sw := range l.switches() {
		if i > 0 {
			b.WriteByte(',')
		}
		if *sw.field == sw.negate {
			b.WriteString("no-")
		}
		b.WriteString(sw.name)
	}
	if l.SpecWorkers != 0 {
		fmt.Fprintf(&b, ",%s=%d", specWorkersName, l.SpecWorkers)
	}
	return b.String()
}

// MarshalText implements encoding.TextMarshaler with String's form.
func (l Layers) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText parses String's form. Switches that are not named keep
// their default, so "" is the zero value and "reduce,no-speculate" changes
// exactly two layers.
func (l *Layers) UnmarshalText(text []byte) error {
	var out Layers
	switches := out.switches()
tokens:
	for _, tok := range strings.Split(string(text), ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if n, ok := strings.CutPrefix(tok, specWorkersName+"="); ok {
			v, err := strconv.Atoi(n)
			if err != nil {
				return fmt.Errorf("layers: %q: bad worker count", tok)
			}
			out.SpecWorkers = v
			continue
		}
		name, off := strings.CutPrefix(tok, "no-")
		for _, sw := range switches {
			if sw.name == name {
				*sw.field = off == sw.negate
				continue tokens
			}
		}
		return fmt.Errorf("layers: unknown layer %q", tok)
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*l = out
	return nil
}

// RegisterFlags declares the layer flags on fs, writing into l: one
// boolean per switch plus -spec-workers. Call Validate after fs.Parse.
func (l *Layers) RegisterFlags(fs *flag.FlagSet) {
	switches := l.switches()
	for i, sw := range switches {
		sw := sw
		usage := fmt.Sprintf("%s; soundness-triage step %d of %d", sw.usage, i+1, len(switches))
		fs.BoolFunc(sw.name, usage, func(s string) error {
			on, err := strconv.ParseBool(s)
			if err == nil {
				*sw.field = on != sw.negate
			}
			return err
		})
	}
	fs.IntVar(&l.SpecWorkers, specWorkersName, 0, "solver workers for the speculative-fork pipeline (0 = one per CPU)")
}

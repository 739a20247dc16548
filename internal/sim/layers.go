package sim

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// Layers is the set of optional execution layers of a run — the only
// place the layer set is represented. The zero value is the default
// stack: compiled fast path and speculation both on.
//
// Declaration order is the soundness-triage order, bottom layer first:
// when a run looks wrong, flip the first switch whose output you distrust
// and compare. Every layer preserves state fingerprints, dscenario sets,
// violations and test cases bit for bit, so any change in output names
// the faulty layer.
//
// A Layers value is fixed when the engine is created (CREATE) and never
// consulted again: newEngineShell turns it into the engine's pool and
// hooks, and exploration (BUILD) reads only those.
type Layers struct {
	// NoCompile runs every instruction through the per-instruction
	// symbolic interpreter instead of the basic-block compiled fast path.
	// The IR is derived at load time and never serialized, so the switch
	// may differ between a checkpointed run and its resumption.
	NoCompile bool
	// NoSpeculate solves every branch feasibility query synchronously on
	// the interpreter thread instead of overlapping it with execution.
	// With speculation on, the solver pool has one worker per CPU.
	NoSpeculate bool
}

// layerSwitch is one on/off layer: its name in flags and the textual
// form, and the Layers field it drives. Every layer is on by default, so
// the field is the switch's negation.
type layerSwitch struct {
	name  string
	off   *bool
	usage string
}

// switches lists the on/off layers in declaration (triage) order.
func (l *Layers) switches() []layerSwitch {
	return []layerSwitch{
		{"compile", &l.NoCompile, "basic-block compiled fast path (default true)"},
		{"speculate", &l.NoSpeculate, "speculative-fork solver pipeline, one solver worker per CPU (default true)"},
	}
}

// String renders the full layer set in declaration order, e.g.
// "compile,speculate" for the zero value. It is the one textual
// form: logs print it, JSON carries it, UnmarshalText reads it.
func (l Layers) String() string {
	var b strings.Builder
	for i, sw := range l.switches() {
		if i > 0 {
			b.WriteByte(',')
		}
		if *sw.off {
			b.WriteString("no-")
		}
		b.WriteString(sw.name)
	}
	return b.String()
}

// MarshalText implements encoding.TextMarshaler with String's form.
func (l Layers) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText parses String's form. Switches that are not named keep
// their default, so "" is the zero value and "no-compile,no-speculate"
// changes exactly two layers.
func (l *Layers) UnmarshalText(text []byte) error {
	var out Layers
	switches := out.switches()
tokens:
	for _, tok := range strings.Split(string(text), ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, off := strings.CutPrefix(tok, "no-")
		for _, sw := range switches {
			if sw.name == name {
				*sw.off = off
				continue tokens
			}
		}
		return fmt.Errorf("layers: unknown layer %q", tok)
	}
	*l = out
	return nil
}

// RegisterFlags declares the layer flags on fs, writing into l: one
// boolean per switch.
func (l *Layers) RegisterFlags(fs *flag.FlagSet) {
	switches := l.switches()
	for i, sw := range switches {
		sw := sw
		usage := fmt.Sprintf("%s; soundness-triage step %d of %d", sw.usage, i+1, len(switches))
		fs.BoolFunc(sw.name, usage, func(s string) error {
			on, err := strconv.ParseBool(s)
			if err == nil {
				*sw.off = !on
			}
			return err
		})
	}
}

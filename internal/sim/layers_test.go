package sim

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestLayersText(t *testing.T) {
	cases := []struct {
		text string // accepted input
		want Layers
		full string // String() of want
	}{
		{"", Layers{}, "compile,speculate"},
		{"compile, no-speculate", Layers{NoSpeculate: true},
			"compile,no-speculate"},
		{"no-compile", Layers{NoCompile: true}, "no-compile,speculate"},
		{"no-speculate,speculate", Layers{}, "compile,speculate"},
	}
	for _, c := range cases {
		var got Layers
		if err := got.UnmarshalText([]byte(c.text)); err != nil {
			t.Errorf("UnmarshalText(%q): %v", c.text, err)
			continue
		}
		if got != c.want {
			t.Errorf("UnmarshalText(%q) = %+v, want %+v", c.text, got, c.want)
		}
		if got.String() != c.full {
			t.Errorf("String() = %q, want %q", got.String(), c.full)
		}
		var back Layers
		if err := back.UnmarshalText([]byte(c.full)); err != nil || back != c.want {
			t.Errorf("round trip of %q = %+v, %v", c.full, back, err)
		}
	}
	bad := []struct{ text, want string }{
		{"turbo", `layers: unknown layer "turbo"`},
		{"no-", `layers: unknown layer "no-"`},
		{"compile=off", `layers: unknown layer "compile=off"`},
		// State merging, symmetry reduction, the speculation pool's size and
		// the query optimizer are deleted, not defaulted: their tokens, and
		// the canonical strings that carried one, are refused by name.
		{"merge", `layers: unknown layer "merge"`},
		{"no-merge", `layers: unknown layer "no-merge"`},
		{"compile,no-merge,no-reduce,speculate,qopt", `layers: unknown layer "no-merge"`},
		{"reduce", `layers: unknown layer "reduce"`},
		{"no-reduce", `layers: unknown layer "no-reduce"`},
		{"spec-workers=2", `layers: unknown layer "spec-workers=2"`},
		{"compile,no-reduce,speculate,qopt", `layers: unknown layer "no-reduce"`},
		{"qopt", `layers: unknown layer "qopt"`},
		{"no-qopt", `layers: unknown layer "no-qopt"`},
		{"compile,speculate,qopt", `layers: unknown layer "qopt"`},
		{"no-compile,no-qopt", `layers: unknown layer "no-qopt"`},
	}
	for _, c := range bad {
		l := Layers{NoSpeculate: true}
		if err := l.UnmarshalText([]byte(c.text)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("UnmarshalText(%q) = %v, want an error saying %s", c.text, err, c.want)
		}
		if l != (Layers{NoSpeculate: true}) {
			t.Errorf("failed UnmarshalText(%q) changed the value to %+v", c.text, l)
		}
	}
}

// TestLayersFlags: the one flag helper maps -name / -name=false onto the
// fields (inverted: every layer is on by default), and registers nothing
// for a deleted layer or knob.
func TestLayersFlags(t *testing.T) {
	parse := func(args ...string) (Layers, error) {
		var l Layers
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		l.RegisterFlags(fs)
		return l, fs.Parse(args)
	}
	got, err := parse("-compile=false", "-speculate=false")
	want := Layers{NoCompile: true, NoSpeculate: true}
	if err != nil || got != want {
		t.Errorf("all flags = %+v, %v; want %+v", got, err, want)
	}
	if got, err := parse("-compile", "-speculate=true"); err != nil || got != (Layers{}) {
		t.Errorf("default-valued flags = %+v, %v; want the zero value", got, err)
	}
	for _, args := range [][]string{{"-merge"}, {"-reduce"}, {"-spec-workers", "2"}, {"-qopt"}} {
		if _, err := parse(args...); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v = %v, want a flag-parse error: the layer or knob is deleted", args, err)
		}
	}
}

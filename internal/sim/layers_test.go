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
		{"", Layers{}, "compile,no-reduce,speculate,qopt"},
		{"reduce, no-speculate", Layers{Reduce: true, NoSpeculate: true},
			"compile,reduce,no-speculate,qopt"},
		{"no-compile,reduce,no-qopt,spec-workers=3",
			Layers{NoCompile: true, Reduce: true, NoQopt: true, SpecWorkers: 3},
			"no-compile,reduce,speculate,no-qopt,spec-workers=3"},
		{"reduce,no-reduce", Layers{}, "compile,no-reduce,speculate,qopt"},
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
		{"spec-workers=x", "bad worker count"},
		{"spec-workers=-1", "must be >= 0"},
		{"compile=off", `layers: unknown layer "compile=off"`},
		// State merging is deleted, not defaulted off: its tokens, and the
		// canonical string that carried one, are refused by name.
		{"merge", `layers: unknown layer "merge"`},
		{"no-merge", `layers: unknown layer "no-merge"`},
		{"compile,no-merge,no-reduce,speculate,qopt", `layers: unknown layer "no-merge"`},
	}
	for _, c := range bad {
		l := Layers{Reduce: true}
		if err := l.UnmarshalText([]byte(c.text)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("UnmarshalText(%q) = %v, want an error saying %s", c.text, err, c.want)
		}
		if l != (Layers{Reduce: true}) {
			t.Errorf("failed UnmarshalText(%q) changed the value to %+v", c.text, l)
		}
	}
}

// TestLayersFlags: the one flag helper maps -name / -name=false onto the
// fields (inverted for default-on layers), and Validate names the flag of
// a negative worker count.
func TestLayersFlags(t *testing.T) {
	parse := func(args ...string) (Layers, error) {
		var l Layers
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		l.RegisterFlags(fs)
		return l, fs.Parse(args)
	}
	got, err := parse("-compile=false", "-reduce=true", "-speculate=false", "-qopt=false", "-spec-workers", "4")
	want := Layers{NoCompile: true, Reduce: true, NoSpeculate: true, NoQopt: true, SpecWorkers: 4}
	if err != nil || got != want {
		t.Errorf("all flags = %+v, %v; want %+v", got, err, want)
	}
	if got, err := parse("-compile", "-reduce=false"); err != nil || got != (Layers{}) {
		t.Errorf("default-valued flags = %+v, %v; want the zero value", got, err)
	}
	if _, err := parse("-merge"); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -merge") {
		t.Errorf("-merge = %v, want a flag-parse error: the layer is deleted", err)
	}
	l, err := parse("-spec-workers=-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 64} {
		if err := (Layers{SpecWorkers: n}).Validate(); err != nil {
			t.Errorf("Validate(SpecWorkers=%d) = %v", n, err)
		}
	}
	if err := l.Validate(); err == nil || !strings.Contains(err.Error(), "-spec-workers") {
		t.Errorf("Validate of -spec-workers=-1 = %v, want an error naming the flag", err)
	}
}

package sde_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// `go test -run Name` exits 0 with "no tests to run" when Name matches
// nothing, so a CI step that names a deleted or renamed test keeps passing
// while checking nothing. TestCIWorkflowNamesExistingTests holds every name
// the workflow selects to a function that exists.

// testFuncs lists the top-level Test*, Fuzz* and Benchmark* functions
// declared in the *_test.go files of dir — of every directory below it too
// when recursive.
func testFuncs(dir string, recursive bool) ([]string, error) {
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && !recursive {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	return names, err
}

// shellWords splits one command into words, honouring single and double
// quotes.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	quote, inWord := rune(0), false
	flush := func() {
		if inWord {
			words = append(words, cur.String())
			cur.Reset()
			inWord = false
		}
	}
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			flush()
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	flush()
	return words
}

// workflowComplaints checks every `go test` command of a workflow file
// (paths relative to root): each alternative of each -run, -fuzz and -bench
// pattern must match a function of the matching kind in the packages the
// command names. The patterns `.` and `^$` select everything and nothing
// and are exempt.
func workflowComplaints(root string, workflow []byte) ([]string, error) {
	kinds := map[string][]string{
		"run":   {"Test", "Fuzz"}, // -run also runs a fuzz target's seed corpus
		"fuzz":  {"Fuzz"},
		"bench": {"Benchmark"},
	}
	var complaints []string
	for n, line := range strings.Split(string(workflow), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") || !strings.Contains(line, "go test") {
			continue
		}
		line = strings.TrimPrefix(strings.TrimPrefix(line, "- "), "run:")
		base := root
		for _, cmd := range strings.Split(line, "&&") {
			w := shellWords(cmd)
			if len(w) == 2 && w[0] == "cd" {
				base = filepath.Join(root, w[1])
				continue
			}
			if len(w) < 2 || w[0] != "go" || w[1] != "test" {
				continue
			}
			patterns := map[string]string{}
			var pkgs []string
			for i := 2; i < len(w); i++ {
				flag, val, hasVal := strings.Cut(strings.TrimLeft(w[i], "-"), "=")
				switch {
				case !strings.HasPrefix(w[i], "-"):
					pkgs = append(pkgs, w[i])
				case kinds[flag] == nil:
					// Every other flag the workflow uses is -name=value or boolean.
				case hasVal:
					patterns[flag] = val
				case i+1 < len(w):
					i++
					patterns[flag] = w[i]
				}
			}
			if len(pkgs) == 0 {
				pkgs = []string{"."}
			}
			var funcs []string
			for _, pkg := range pkgs {
				dir, recursive := strings.CutSuffix(pkg, "...")
				names, err := testFuncs(filepath.Join(base, dir), recursive)
				if err != nil {
					return nil, fmt.Errorf("line %d: package %s: %w", n+1, pkg, err)
				}
				funcs = append(funcs, names...)
			}
			for _, flag := range []string{"run", "fuzz", "bench"} {
				pattern, ok := patterns[flag]
				if !ok {
					continue
				}
				// Below the first slash a pattern selects subtests, which no
				// declaration names.
				top, _, _ := strings.Cut(pattern, "/")
				for _, alt := range strings.Split(top, "|") {
					if alt == "." || alt == "^$" {
						continue
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						return nil, fmt.Errorf("line %d: -%s %q: %w", n+1, flag, alt, err)
					}
					matched := false
					for _, name := range funcs {
						for _, kind := range kinds[flag] {
							matched = matched || strings.HasPrefix(name, kind) && re.MatchString(name)
						}
					}
					if !matched {
						complaints = append(complaints, fmt.Sprintf(
							"line %d: -%s %q matches no %s function in %s",
							n+1, flag, alt, strings.Join(kinds[flag], "/"), strings.Join(pkgs, " ")))
					}
				}
			}
		}
	}
	return complaints, nil
}

func TestCIWorkflowNamesExistingTests(t *testing.T) {
	workflow, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	complaints, err := workflowComplaints(".", workflow)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range complaints {
		t.Errorf("ci.yml %s", c)
	}
	if !strings.Contains(string(workflow), "-fuzz=") || !strings.Contains(string(workflow), "-bench=") {
		t.Error("ci.yml names no fuzz target or no benchmark: the check above no longer covers what it is for")
	}

	// The check itself: a step naming a test that is gone must be caught,
	// whichever form it is written in and wherever its package is.
	for _, stale := range []struct{ step, want string }{
		{"run: go test -race -run 'TestReductionOnOffEquivalence|TestMergeKillAndResume' -count=5 ./internal/sim",
			`-run "TestMergeKillAndResume" matches no Test/Fuzz function in ./internal/sim`},
		{"go test ./internal/sim -run='^$' -fuzz=FuzzMergeEquivalence -fuzztime=20s",
			`-fuzz "FuzzMergeEquivalence" matches no Fuzz function in ./internal/sim`},
		{"go test -run='^$' -bench=BenchmarkSample -benchtime=1x .",
			`-bench "BenchmarkSample" matches no Benchmark function in .`},
		{"run: cd bench && go test -run TestQuickSmoke ./... && go test -run TestFuseDetachesSharedTrace .",
			`-run "TestFuseDetachesSharedTrace" matches no Test/Fuzz function in .`},
	} {
		got, err := workflowComplaints(".", []byte(stale.step))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !strings.HasSuffix(got[0], stale.want) {
			t.Errorf("step %q: complaints %q, want exactly one ending %q", stale.step, got, stale.want)
		}
	}
}

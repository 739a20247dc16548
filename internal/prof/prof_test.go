package prof

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStart drives Start and its stop function over the paths a command
// line can hand them. Every case ends by starting a CPU profile again: the
// runtime allows one at a time, so that fails if the case left one running.
func TestStart(t *testing.T) {
	const missing = "no-such-dir/profile"
	for _, tc := range []struct {
		name     string
		cpu, mem string // relative to the case's directory; "" for none
		startErr string // which profile a failing Start names
		stopErr  string // which profile a failing stop names
	}{
		{name: "neither"},
		{name: "both", cpu: "cpu.pprof", mem: "mem.pprof"},
		{name: "uncreatable-cpu", cpu: missing, mem: "mem.pprof", startErr: "cpu profile"},
		{name: "uncreatable-heap", cpu: "cpu.pprof", mem: missing, stopErr: "heap profile"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			at := func(rel string) string {
				if rel == "" {
					return ""
				}
				return filepath.Join(dir, rel)
			}
			// The error names which profile failed and wraps the cause.
			failed := func(what string, err error, profile string) bool {
				t.Helper()
				if profile == "" {
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					return false
				}
				if err == nil || !strings.HasPrefix(err.Error(), profile+": ") || !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("%s = %v, want an error naming the %s and wrapping fs.ErrNotExist", what, err, profile)
				}
				return true
			}
			stop, err := Start(at(tc.cpu), at(tc.mem))
			if !failed("Start", err, tc.startErr) && !failed("stop", stop(), tc.stopErr) {
				written := 0
				for _, rel := range []string{tc.cpu, tc.mem} {
					if rel == "" {
						continue
					}
					written++
					if st, err := os.Stat(at(rel)); err != nil || st.Size() == 0 {
						t.Errorf("profile %s: %v, want a non-empty file", rel, err)
					}
				}
				if entries, _ := os.ReadDir(dir); len(entries) != written {
					t.Errorf("%d files written, want %d", len(entries), written)
				}
			}
			again, err := Start(filepath.Join(t.TempDir(), "again.pprof"), "")
			if err != nil {
				t.Fatalf("a CPU profile is still running after the case: second Start: %v", err)
			}
			if err := again(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

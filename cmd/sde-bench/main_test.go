package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestParseDims(t *testing.T) {
	got, err := parseDims("5,7,10")
	if err != nil || !reflect.DeepEqual(got, []int{5, 7, 10}) {
		t.Errorf("parseDims = %v, %v", got, err)
	}
	got, err = parseDims(" 3 , 4 ")
	if err != nil || !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("parseDims with spaces = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "1", "5,,x", "0"} {
		if _, err := parseDims(bad); err == nil {
			t.Errorf("parseDims(%q) accepted", bad)
		}
	}
}

// TestValidateWorkerFlag: a negative -workers must be rejected with an
// error naming the flag, not silently mapped to a default worker count.
func TestValidateWorkerFlag(t *testing.T) {
	for _, n := range []int{0, 8} {
		if err := validateWorkerFlag("-workers", n); err != nil {
			t.Errorf("validateWorkerFlag(-workers, %d) = %v, want nil", n, err)
		}
	}
	if err := validateWorkerFlag("-workers", -1); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("validateWorkerFlag(-workers, -1) = %v, want an error naming the flag", err)
	}
}

// flagNames reads the registered flag names off the command's -h output.
func flagNames(usage string) []string {
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`).FindAllStringSubmatch(usage, -1) {
		names = append(names, m[1])
	}
	return names
}

// TestRun drives every mode the command still has through run, at sizes
// that finish in milliseconds, and checks the claim each table exists to
// show; then the flags that must be rejected.
func TestRun(t *testing.T) {
	tableRow := regexp.MustCompile(`(?m)^[A-Za-z ]+\((COB|COW|SDS)\)\s+\S+\s+(\d+)\s`)
	cases := []struct {
		name    string
		args    []string
		check   func(t *testing.T, out string)
		wantErr string // substring of the error; "" means the run must succeed
	}{
		{name: "table sweep", args: []string{"-dims", "3", "-packets", "1"}, check: func(t *testing.T, out string) {
			states := map[string]int{}
			for _, m := range tableRow.FindAllStringSubmatch(out, -1) {
				states[m[1]], _ = strconv.Atoi(m[2])
			}
			if len(states) != 3 || states["SDS"] == 0 ||
				states["SDS"] > states["COW"] || states["COW"] > states["COB"] {
				t.Errorf("want three rows with SDS <= COW <= COB states, got %v in:\n%s", states, out)
			}
		}},
		{name: "worst case", args: []string{"-worstcase"}, check: func(t *testing.T, out string) {
			rows := 0
			for _, line := range strings.Split(out, "\n") {
				f := strings.Fields(line)
				if len(f) != 10 || f[2] != "|" || f[0] == "k" {
					continue
				}
				rows++
				if f[5] != "true" || f[9] != "true" {
					t.Errorf("measured states differ from the closed form: %s", line)
				}
			}
			if rows == 0 {
				t.Errorf("no table rows in:\n%s", out)
			}
		}},
		{name: "sharded", args: []string{"-sharded", "-dims", "4", "-workers", "2"}, check: func(t *testing.T, out string) {
			// run fails if the schedules' dscenario counts differ; the
			// closing line states the common count.
			for _, schedule := range []string{"unsharded", "static"} {
				if !regexp.MustCompile(`(?m)^` + schedule + `\s+\|`).MatchString(out) {
					t.Errorf("no %s row in:\n%s", schedule, out)
				}
			}
			if regexp.MustCompile(`(?m)^adaptive\s+\|`).MatchString(out) {
				t.Errorf("an adaptive row in:\n%s", out)
			}
			if !regexp.MustCompile(`All schedules cover [1-9]\d* dscenarios`).MatchString(out) {
				t.Errorf("no common dscenario count in:\n%s", out)
			}
		}},
		{name: "flag list", args: []string{"-h"}, wantErr: flag.ErrHelp.Error(), check: func(t *testing.T, out string) {
			want := []string{"checkpoint", "cpuprofile", "dims", "memprofile", "packets", "shard-bits", "sharded",
				"table1", "wall", "workers", "worstcase"}
			if got := flagNames(out); !reflect.DeepEqual(got, want) {
				t.Errorf("registered flags = %v, want %v", got, want)
			}
		}},
		{name: "deleted -json", args: []string{"-json"}, wantErr: "-json"},
		{name: "deleted -spec-workers", args: []string{"-spec-workers", "2"}, wantErr: "-spec-workers"},
		{name: "deleted -split-bits", args: []string{"-sharded", "-split-bits", "2"}, wantErr: "-split-bits"},
		{name: "deleted -split-threshold", args: []string{"-sharded", "-split-threshold", "64"}, wantErr: "-split-threshold"},
		{name: "negative -workers", args: []string{"-workers", "-1"}, wantErr: "-workers"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tt.args, &out)
			switch {
			case tt.wantErr == "" && err != nil:
				t.Fatalf("run(%v) = %v", tt.args, err)
			case tt.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tt.wantErr)):
				t.Fatalf("run(%v) = %v, want an error naming %q", tt.args, err, tt.wantErr)
			}
			if tt.check != nil {
				tt.check(t, out.String())
			}
		})
	}
}

// TestDocsNameRegisteredFlags: every flag the documentation passes to
// sde-bench exists. A run of flags is whatever follows the command name,
// each with at most one value; prose, a backtick, '|' or '#' ends it.
func TestDocsNameRegisteredFlags(t *testing.T) {
	var usage bytes.Buffer
	if err := run([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	registered := map[string]bool{}
	for _, name := range flagNames(usage.String()) {
		registered[name] = true
	}
	flagRun := regexp.MustCompile("sde-bench((?:\\s+-[a-z][a-z0-9-]*(?:[= ][^\\s`|#-][^\\s`|#]*)?)+)")
	flagName := regexp.MustCompile(`\s-([a-z][a-z0-9-]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range flagRun.FindAllStringSubmatch(string(text), -1) {
			for _, m := range flagName.FindAllStringSubmatch(cmd[1], -1) {
				if !registered[m[1]] {
					t.Errorf("%s: %q passes -%s, which sde-bench does not register",
						doc, strings.Join(strings.Fields(cmd[0]), " "), m[1])
				}
			}
		}
	}
}

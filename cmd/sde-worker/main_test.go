package main

import (
	"errors"
	"io/fs"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"sde"
	"sde/internal/dist"
)

var testSpec = sde.ScenarioSpec{
	Workload: "collect",
	Topology: "grid:3",
	Packets:  2,
	Drops:    "route+neighbors",
}

func TestRequiredFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-connect is required"},
		{[]string{"-connect", "127.0.0.1:1"}, "-workdir is required"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error saying %q", tc.args, err, tc.want)
		}
	}
}

// startJob starts an in-process coordinator with one unsharded job queued
// and a worker — run itself, with the given extra flags — connected to it.
func startJob(t *testing.T, workdir string, flags ...string) (c *dist.Coordinator, job string, worker <-chan error) {
	t.Helper()
	c = dist.NewCoordinator(dist.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l)
	t.Cleanup(func() { c.Close() })
	job, err = c.AddJob(testSpec, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-connect", l.Addr().String(), "-workdir", workdir, "-quiet"}, flags...)
	errc := make(chan error, 1)
	go func() { errc <- run(args) }()
	return c, job, errc
}

func waitWorker(t *testing.T, worker <-chan error) error {
	t.Helper()
	select {
	case err := <-worker:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("the worker did not return")
		return nil
	}
}

// A lease run to completion ships a leaf the coordinator assembles to the
// in-process digest; the worker then leaves when the coordinator does.
func TestCleanLease(t *testing.T) {
	c, job, worker := startJob(t, t.TempDir())
	select {
	case <-c.WaitJob(job):
	case <-time.After(30 * time.Second):
		t.Fatal("the job did not finish")
	}
	s, err := testSpec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sde.RunScenarioSharded(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.Digest(8)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := c.JobStatus(job); st.State != dist.JobDone || st.Digest != want {
		t.Errorf("job is %s (%s) with digest %s, want done with %s", st.State, st.Error, st.Digest, want)
	}
	c.Close()
	if err := waitWorker(t, worker); err == nil || errors.Is(err, dist.ErrCrashed) {
		t.Errorf("worker returned %v after the coordinator closed, want a connection error", err)
	}
}

// The injected crash returns ErrCrashed (exit code 3) and, fired before the
// lease's first paced checkpoint, leaves what a kill would: nothing.
func TestCrashAfterEvents(t *testing.T) {
	workdir := t.TempDir()
	_, _, worker := startJob(t, workdir, "-crash-after-events", "1")
	if err := waitWorker(t, worker); !errors.Is(err, dist.ErrCrashed) {
		t.Fatalf("worker returned %v, want ErrCrashed", err)
	}
	var files []string
	err := fs.WalkDir(os.DirFS(workdir), ".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("the crashed worker left %v in its work directory, want no file", files)
	}
}

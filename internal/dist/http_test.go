package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestServiceHTTPAPI drives the whole job lifecycle through the HTTP
// surface: submit, observe, stream events, fetch the report, and check
// the digest against the in-process oracle; then exercise /metrics,
// /healthz, cancellation, and the 404 paths.
func TestServiceHTTPAPI(t *testing.T) {
	c, addr := startCoordinator(t, Options{})
	srv := httptest.NewServer(c.HTTPHandler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Fast heartbeats + per-event checkpoints so the heartbeat counters
	// demonstrably move during this short job.
	startWorker(t, ctx, addr, WorkerOptions{
		Name:            "w0",
		HeartbeatEvery:  time.Millisecond,
		CheckpointEvery: 1,
	})

	// Submit.
	body, _ := json.Marshal(SubmitRequest{Spec: testSpec, ShardBits: 2, TestCases: 8})
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.ID == "" {
		t.Fatal("empty job id")
	}

	// Stream events until the terminal status arrives.
	resp, err = http.Get(srv.URL + "/api/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var last JobStatus
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		if err := json.Unmarshal(scanner.Bytes(), &last); err != nil {
			t.Fatalf("bad event line %q: %v", scanner.Text(), err)
		}
	}
	resp.Body.Close()
	if last.State != JobDone {
		t.Fatalf("final streamed state = %s (%s)", last.State, last.Error)
	}

	// Report: digest must equal the in-process oracle.
	resp, err = http.Get(srv.URL + "/api/v1/jobs/" + sub.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d", resp.StatusCode)
	}
	var report shardedReportJSON
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := oracleDigest(t, testSpec, 2, 8)
	if report.Digest != want {
		t.Errorf("report digest %s != oracle %s", report.Digest, want)
	}
	if len(report.Shards) != 4 {
		t.Errorf("report shards = %d, want 4", len(report.Shards))
	}
	for _, sh := range report.Shards {
		if sh.Report == nil || sh.Report.States == 0 {
			t.Errorf("shard %d has an empty report", sh.Shard)
		}
	}

	// List includes the job.
	resp, err = http.Get(srv.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Errorf("job list = %+v", list)
	}

	// Metrics expose the service counters.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"sde_leases_issued_total", "sde_results_total",
		"sde_heartbeats_total", "sde_workers_connected",
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("/metrics missing %s:\n%s", want, metricsText)
		}
	}

	// Healthz.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}

	// Cancel a second job before any worker can finish it.
	body, _ = json.Marshal(SubmitRequest{Spec: testSpec, ShardBits: 2})
	resp, err = http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub2 SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sub2)
	resp.Body.Close()
	resp, err = http.Post(srv.URL+"/api/v1/jobs/"+sub2.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := c.JobStatus(sub2.ID)
		if st.State == JobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job 2 state = %s, want cancelled", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err = http.Get(srv.URL + "/api/v1/jobs/" + sub2.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("report of cancelled job: status %d, want 409", resp.StatusCode)
	}

	// 404s.
	for _, path := range []string{"/api/v1/jobs/nope", "/api/v1/jobs/nope/report", "/api/v1/jobs/nope/events"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", path, resp.StatusCode)
		}
	}

	// Bad submissions are rejected, with the reason in the body.
	for _, bad := range []struct{ body, reason string }{
		{`{not json`, "bad request"},
		{`{"spec":{"workload":"collect","topology":"ring:4"}}`, "ring"},
		// A deleted layer is an unknown layer, not a default.
		{`{"spec":{"workload":"collect","topology":"grid:3","layers":"merge"}}`, `layers: unknown layer "merge"`},
		{`{"spec":{"workload":"collect","topology":"grid:3","layers":"reduce"}}`, `layers: unknown layer "reduce"`},
		{`{"spec":{"workload":"collect","topology":"grid:3","layers":"spec-workers=2"}}`, `layers: unknown layer "spec-workers=2"`},
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(bad.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), bad.reason) {
			t.Errorf("submit %q = %d %q, want 400 saying %q", bad.body, resp.StatusCode, msg, bad.reason)
		}
	}
}

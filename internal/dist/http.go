package dist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"sde"
)

// SubmitRequest is the POST /api/v1/jobs body.
type SubmitRequest struct {
	Spec sde.ScenarioSpec `json:"spec"`
	// ShardBits sizes the initial partition (clamped to the scenario's
	// MaxShardBits).
	ShardBits int `json:"shard_bits"`
	// TestCases is the per-shard test-case budget used for the report
	// and its digest (0 = none).
	TestCases int `json:"test_cases"`
	// DepthHorizon, when non-zero, partitions the job along the second
	// shard dimension — exploration depth: leases suspend every
	// DepthHorizon processed events and fan their frontiers out as
	// continuation items (see JobOptions.DepthHorizon).
	DepthHorizon uint64 `json:"depth_horizon,omitempty"`
	// HorizonFanout is the continuation fan-out per suspension (0 =
	// default 2 when DepthHorizon is set).
	HorizonFanout int `json:"horizon_fanout,omitempty"`
}

// SubmitResponse answers a job submission.
type SubmitResponse struct {
	ID string `json:"id"`
}

type shardReportJSON struct {
	Shard  int               `json:"shard"`
	Pin    map[string]uint64 `json:"pin,omitempty"`
	Report *sde.ReportJSON   `json:"report"`
}

type shardedReportJSON struct {
	Job        string            `json:"job"`
	Digest     string            `json:"digest"`
	States     int               `json:"states"`
	DScenarios string            `json:"dscenarios"`
	Stats      sde.RunStats      `json:"stats"` // the shards' stats, summed
	Shards     []shardReportJSON `json:"shards"`
}

// HTTPHandler exposes the job API:
//
//	POST /api/v1/jobs              submit a job (SubmitRequest -> SubmitResponse)
//	GET  /api/v1/jobs              list job statuses
//	GET  /api/v1/jobs/{id}         one job's status
//	GET  /api/v1/jobs/{id}/report  the finished job's full report + digest
//	GET  /api/v1/jobs/{id}/events  stream status JSON lines until terminal
//	POST /api/v1/jobs/{id}/cancel  cancel a job
//	GET  /metrics                  Prometheus text exposition
//	GET  /healthz                  liveness probe
func (c *Coordinator) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		id, err := c.AddJobWith(req.Spec, JobOptions{
			ShardBits:     req.ShardBits,
			TestCases:     req.TestCases,
			DepthHorizon:  req.DepthHorizon,
			HorizonFanout: req.HorizonFanout,
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, SubmitResponse{ID: id})
	})
	mux.HandleFunc("GET /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Jobs())
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.JobStatus(r.PathValue("id"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		report, digest, testCases, err := c.JobReport(id)
		if err != nil {
			if _, ok := c.JobStatus(id); !ok {
				http.NotFound(w, r)
			} else {
				http.Error(w, err.Error(), http.StatusConflict)
			}
			return
		}
		out := shardedReportJSON{
			Job:        id,
			Digest:     digest,
			States:     report.States(),
			DScenarios: report.DScenarios().String(),
			Stats:      report.Stats(),
		}
		for _, sh := range report.Shards {
			rj, err := sh.Report.JSON(testCases)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			out.Shards = append(out.Shards, shardReportJSON{
				Shard: sh.Shard, Pin: sh.Pin, Report: rj,
			})
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := c.JobStatus(id); !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		done := c.WaitJob(id)
		ticker := time.NewTicker(250 * time.Millisecond)
		defer ticker.Stop()
		for {
			st, ok := c.JobStatus(id)
			if !ok {
				return
			}
			if err := enc.Encode(st); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if st.State != JobRunning {
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-done:
				// Loop once more to emit the terminal status.
			case <-ticker.C:
			}
		}
	})
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := c.CancelJob(r.PathValue("id")); err != nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, map[string]string{"status": "cancelled"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.reg.WriteTo(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

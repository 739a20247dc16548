package sde

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sde/internal/trace"
)

// JSON export of run results for external tooling (dashboards, regression
// tracking). All numbers are final values; the big-integer dscenario count
// travels as a decimal string.

// ReportJSON is the serialisable projection of a Report.
type ReportJSON struct {
	Algorithm    string          `json:"algorithm"`
	Scenario     string          `json:"scenario"`
	Aborted      bool            `json:"aborted"`
	AbortReason  string          `json:"abort_reason,omitempty"`
	WallMS       float64         `json:"wall_ms"`
	VirtualTime  uint64          `json:"virtual_time"`
	Instructions uint64          `json:"instructions"`
	States       int             `json:"states"`
	Duplicates   int             `json:"duplicate_states"`
	Groups       int             `json:"groups"`
	DScenarios   string          `json:"dscenarios"`
	MemBytes     int64           `json:"mem_bytes"`
	PeakMemBytes int64           `json:"peak_mem_bytes"`
	Stats        RunStats        `json:"stats"` // what each layer did; zero counters are left out
	Violations   []ViolationJSON `json:"violations,omitempty"`
	TestCases    []TestCaseJSON  `json:"test_cases,omitempty"`
}

// ViolationJSON is a serialisable assertion failure.
type ViolationJSON struct {
	Node    int               `json:"node"`
	Time    uint64            `json:"time"`
	Msg     string            `json:"msg"`
	Witness map[string]uint64 `json:"witness"`
	// Synthesized marks violations reconstructed by symmetry expansion
	// rather than observed on an executed path (see README, Reduction).
	Synthesized bool `json:"synthesized,omitempty"`
}

// TestCaseJSON is a serialisable concrete test case.
type TestCaseJSON struct {
	Index  int               `json:"index"`
	Inputs map[string]uint64 `json:"inputs"`
}

// JSON builds the serialisable projection, including up to maxTestCases
// solved test cases (0 = none).
func (r *Report) JSON(maxTestCases int) (*ReportJSON, error) {
	out := &ReportJSON{
		Algorithm:    r.res.Algorithm.String(),
		Scenario:     r.scenario.desc,
		Aborted:      r.res.Aborted,
		AbortReason:  r.res.AbortReason,
		WallMS:       float64(r.res.Wall) / float64(time.Millisecond),
		VirtualTime:  r.res.VirtualTime,
		Instructions: r.Instructions(),
		States:       r.res.FinalStates,
		Duplicates:   r.DuplicateStates(),
		Groups:       r.res.Groups,
		DScenarios:   r.res.DScenarios.String(),
		MemBytes:     r.res.FinalMem,
		PeakMemBytes: r.res.PeakMem,
		Stats:        r.res.Stats,
	}
	for _, v := range r.res.Violations {
		out.Violations = append(out.Violations, ViolationJSON{
			Node: v.Node, Time: v.Time, Msg: v.Msg, Witness: v.Model,
			Synthesized: v.Synthesized,
		})
	}
	if maxTestCases > 0 {
		err := r.StreamTestCases(maxTestCases, func(tc trace.TestCase) error {
			out.TestCases = append(out.TestCases, TestCaseJSON{
				Index: tc.Index, Inputs: tc.Inputs,
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteJSON writes the indented JSON projection to w.
func (r *Report) WriteJSON(w io.Writer, maxTestCases int) error {
	obj, err := r.JSON(maxTestCases)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obj)
}

// WriteCSV streams the run's metrics time series (the Figure 10 data) to
// w as CSV, one sample per line under a header row. Every write is
// checked, so exporters piping into files see short writes as errors
// instead of silently truncated series.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w,
		"wall_ms,virtual_time,states,groups,mem_bytes,instructions,solver_queries\n"); err != nil {
		return err
	}
	for _, sm := range r.res.Series.Samples() {
		if _, err := fmt.Fprintf(w, "%.3f,%d,%d,%d,%d,%d,%d\n",
			float64(sm.Wall.Microseconds())/1000.0,
			sm.VirtualTime, sm.States, sm.Groups, sm.MemBytes,
			sm.Instructions, sm.SolverQueries); err != nil {
			return err
		}
	}
	return nil
}

package sde_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"testing"

	"sde"
)

func TestReportJSON(t *testing.T) {
	s, err := sde.LineCollectScenario(sde.LineCollectOptions{
		K:         3,
		Algorithm: sde.SDS,
		Packets:   2,
		Failures: sde.FailurePlan{
			DropFirst:      map[int]bool{1: true},
			DuplicateFirst: map[int]bool{0: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sde.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, 4); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded sde.ReportJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if decoded.Algorithm != "SDS" {
		t.Errorf("algorithm = %q", decoded.Algorithm)
	}
	if decoded.States != report.States() {
		t.Errorf("states = %d, want %d", decoded.States, report.States())
	}
	if decoded.DScenarios != report.DScenarios().String() {
		t.Errorf("dscenarios = %q", decoded.DScenarios)
	}
	if decoded.Duplicates != 0 {
		t.Errorf("SDS duplicates = %d", decoded.Duplicates)
	}
	if len(decoded.Violations) == 0 {
		t.Error("violations missing from JSON (duplication bug expected)")
	}
	if len(decoded.TestCases) != 4 {
		t.Errorf("test cases = %d, want 4", len(decoded.TestCases))
	}
	for _, tc := range decoded.TestCases {
		if len(tc.Inputs) == 0 {
			t.Errorf("test case %d has no inputs", tc.Index)
		}
	}
}

func TestRunicastScenarioPublicAPI(t *testing.T) {
	s, err := sde.RunicastScenario(sde.RunicastOptions{
		K:         2,
		Algorithm: sde.SDS,
		Packets:   2,
		Failures:  sde.FailurePlan{DropFirst: map[int]bool{0: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sde.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	// The protocol heals the drop: no violations in any branch.
	if n := len(report.Violations()); n != 0 {
		t.Errorf("violations = %d, want 0 (retransmission heals the drop)", n)
	}
	if report.DScenarios().Int64() != 2 {
		t.Errorf("dscenarios = %v, want 2", report.DScenarios())
	}
	if _, err := sde.RunicastScenario(sde.RunicastOptions{K: 1}); err == nil {
		t.Error("K=1 accepted")
	}
}

// TestWriteCSVRoundTrip parses the emitted CSV back and checks the header
// and the columns survive the trip — the Figure 10 schema external
// plotters rely on.
func TestWriteCSVRoundTrip(t *testing.T) {
	s, err := sde.LineCollectScenario(sde.LineCollectOptions{
		K:         3,
		Algorithm: sde.SDS,
		Packets:   2,
		Failures:  sde.FailurePlan{DropFirst: map[int]bool{0: true, 1: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sde.RunScenario(s.WithSampling(1))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := report.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse emitted CSV: %v", err)
	}
	wantHeader := []string{"wall_ms", "virtual_time", "states", "groups", "mem_bytes",
		"instructions", "solver_queries"}
	if len(rows) == 0 {
		t.Fatal("no rows emitted")
	}
	if len(rows[0]) != len(wantHeader) {
		t.Fatalf("header has %d columns, want %d (%v)", len(rows[0]), len(wantHeader), rows[0])
	}
	for i, col := range wantHeader {
		if rows[0][i] != col {
			t.Fatalf("header[%d] = %q, want %q (full header %v)", i, rows[0][i], col, rows[0])
		}
	}
	samples := report.Samples()
	if len(rows)-1 != len(samples) {
		t.Fatalf("%d data rows, want %d samples", len(rows)-1, len(samples))
	}
	for i, sm := range samples {
		row := rows[i+1]
		if len(row) != len(wantHeader) {
			t.Fatalf("row %d has %d columns, want %d", i, len(row), len(wantHeader))
		}
		for col, want := range map[int]int64{
			1: int64(sm.VirtualTime),
			2: int64(sm.States),
			3: int64(sm.Groups),
			4: sm.MemBytes,
			5: int64(sm.Instructions),
			6: sm.SolverQueries,
		} {
			got, err := strconv.ParseInt(row[col], 10, 64)
			if err != nil {
				t.Fatalf("row %d col %d %q: %v", i, col, row[col], err)
			}
			if got != want {
				t.Errorf("row %d %s = %d, want %d", i, wantHeader[col], got, want)
			}
		}
	}
}

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// expected.json holds, per mode (full or quick) and workload, what every
// run of a row must reproduce and the digest of the sharded row at its
// partition. It is written by -update-expected and checked on every run.
//
//go:embed expected.json
var expectedJSON []byte

type expectedWorkload struct {
	Rows map[string]outcome `json:"rows"`
	// Digest is empty for reconcile: its witnesses contain the constants
	// the seed chose, so the digest differs from seed to seed and is only
	// compared between the modes of one run.
	Digest string `json:"digest,omitempty"`
}

type expectedFile map[string]map[string]*expectedWorkload // mode -> workload

func modeName(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

func loadExpected() (expectedFile, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return f, nil
}

// updateExpected runs every workload once in both modes and writes what it
// saw to path.
func updateExpected(path, tmp string) error {
	out := make(expectedFile)
	for _, quick := range []bool{false, true} {
		mode := modeName(quick)
		out[mode] = make(map[string]*expectedWorkload)
		for i := range workloads {
			wl := &workloads[i]
			h := newHarness(wl, 1, quick, tmp, nil)
			if _, err := h.setup(); err != nil {
				return err
			}
			h.round()
			if h.failed > 0 {
				return fmt.Errorf("%s (%s): %v", wl.name, mode, h.notes)
			}
			ew := &expectedWorkload{Rows: h.seen}
			if findRow(h.rows, wl.shardRow).spec != nil {
				ew.Digest = h.digest
			}
			out[mode][wl.name] = ew
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

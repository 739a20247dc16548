package snap_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sde/internal/metrics"
	"sde/internal/snap"
)

// timeless zeroes what two executions of one scenario legitimately disagree
// on — wall-clock readings and the run counters, some of which are sized by
// the host's CPU count — so that what remains is a function of the scenario
// and the format alone.
func timeless(sp *snap.Snapshot) {
	sp.PriorWall = 0
	sp.Stats = metrics.RunStats{}
	for i := range sp.Samples {
		sp.Samples[i].Wall = 0
	}
}

// TestEncodeGolden pins the format itself: the SHA-256 of the encoded
// 3×3 collect frontier, for every algorithm at an early and a late step.
// TestRoundTripByteStable shows only that one build agrees with itself; a
// change to how snapshots are taken or encoded that alters a single byte
// fails here, and must come with a format version bump and new hashes.
func TestEncodeGolden(t *testing.T) {
	want := map[string]string{
		"COB/3":  "6a2d94e0d9ee8afdd9fe280057fdcce597b03dd1651ffa9b3771b413cf0c777e",
		"COB/60": "68e44671f953c6ae4d506b943277c3e853edef2ad0e6e2fc2bc9b2132a848a7d",
		"COW/3":  "19c719f3bfaea921679012fd201d9700d231b4450895487c87653d8025be6965",
		"COW/60": "9b65a601503e644c6b83a1fcd2fe3393d2718bc92c01489b1c6acdec2f75684f",
		"SDS/3":  "52436ff3077f50c2ca6be9fa3746f03c37f6e33494545073fcd5a957b7f6fc7e",
		"SDS/60": "72c344125049a820d6cefa0d0bf96a8eff2407a26449f72aa09f105c20c2fff0",
	}
	for _, algo := range allAlgorithms {
		for _, steps := range []int{3, 60} {
			name := fmt.Sprintf("%v/%d", algo, steps)
			sp, b := liveSnapshot(t, algo, steps)
			timeless(sp)
			data, err := sp.Encode(b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want[name] {
				t.Errorf("%s: %d-byte snapshot hashes to %s, want %s", name, len(data), got, want[name])
			}
		}
	}
}

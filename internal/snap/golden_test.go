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
		"COB/3":  "b1d1b60f62fdeda65d7a92f172a193a79a7e820f39febeda32602fc83cddecb4",
		"COB/60": "7f0056b52231d2767d705eec860ac07bc3d97fbf523ff3b8d62ad55dc3f877d6",
		"COW/3":  "54bbf24be1784efef021d4caa7a401c15d1f8e726c6372705dfed3b52c603e81",
		"COW/60": "221f609bd6c8b8f2d22e8daabe682db717f0febb96d961b58900b838327c7d3b",
		"SDS/3":  "9b39cb9d5dff88fd8c882f59fb213679de90fae4ed140d3d2bcadfb9340fbeaf",
		"SDS/60": "f5beffdabc6f2a91be46a174e85eb0c6abdc3281baa90c22b802992242f31d94",
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

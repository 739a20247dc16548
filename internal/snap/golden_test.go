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
		"COB/3":  "ba0494db84df5fae697f5b644a85fe5fe7afdb5e85d548ea29dcbb060a2e2aba",
		"COB/60": "ae79308708e4faff4b63ade3fdfd8dbb669dacaf724fee31c05bdb9086335e38",
		"COW/3":  "6dcf273f0a7b34d4db2636a0134dd751d178161225b65d00a7acdd2cc8fb6171",
		"COW/60": "c8ffc5872b01e02be43ffcf91014dd8cba859277e8579b6f0f3541c6ff003acb",
		"SDS/3":  "4fe5e529087285af6b8e21cd5070cb9da012de1f043e6d0839d5ee71a9d844b9",
		"SDS/60": "1dfc6ed451e0b89220b2cd3268dbb509cfa461684e0f79e0525c9d6529f3c3d6",
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

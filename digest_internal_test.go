package sde

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"testing"
)

// enumeratedFingerprints is writeDScenarioFingerprints as it was before it
// kept a table: every dscenario materialised, every member fingerprinted
// where it stands. It is the reference the table version is held to.
func enumeratedFingerprints(w io.Writer, rep *Report) {
	fps := make([]uint64, 0, 64)
	for _, sc := range rep.res.Mapper.Explode(0) {
		fp := uint64(14695981039346656037)
		for _, s := range sc {
			fp ^= s.Fingerprint()
			fp *= 1099511628211
		}
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	for _, fp := range fps {
		fmt.Fprintf(w, "fp %016x\n", fp)
	}
}

// TestDigestFingerprintsMatchEnumeration: the fingerprint section of the
// digest — one Fingerprint call per distinct state, dscenarios streamed —
// is byte for byte what enumerating and hashing every member wrote, on
// every mapper and on leaves of both shard dimensions.
func TestDigestFingerprintsMatchEnumeration(t *testing.T) {
	specs := []ScenarioSpec{
		{Workload: "collect", Topology: "grid:3", Packets: 2, Drops: "route+neighbors"},
		{Workload: "collect", Topology: "grid:4", Packets: 2, Drops: "route"},
		{Workload: "discovery", Topology: "grid:3", Packets: 1},
		{Workload: "flood", Topology: "mesh:4", Packets: 1},
		{Workload: "threshold", Topology: "line:4"},
		{Workload: "deepchain", Topology: "line:4", Ticks: 12, Iters: 16},
	}
	for _, spec := range specs {
		for _, algo := range []string{"cob", "cow", "sds"} {
			spec.Algorithm = algo
			t.Run(spec.Workload+"/"+spec.Topology+"/"+algo, func(t *testing.T) {
				s, err := spec.Scenario()
				if err != nil {
					t.Fatal(err)
				}
				parts := []ShardConfig{{}, {DepthHorizon: 40}}
				if s.MaxShardBits() > 0 {
					parts = append(parts, ShardConfig{ShardBits: 1})
				}
				for _, part := range parts {
					rep, err := RunScenarioShardedWith(s, part)
					if err != nil {
						t.Fatal(err)
					}
					for _, sh := range rep.Shards {
						var got, want bytes.Buffer
						writeDScenarioFingerprints(&got, sh.Report)
						enumeratedFingerprints(&want, sh.Report)
						if !bytes.Equal(got.Bytes(), want.Bytes()) {
							t.Fatalf("partition %+v shard %d: fingerprint section differs from the enumeration (%d vs %d bytes)",
								part, sh.Shard, got.Len(), want.Len())
						}
						if want.Len() == 0 {
							t.Fatalf("partition %+v shard %d: no dscenarios", part, sh.Shard)
						}
					}
				}
			})
		}
	}
}

// TestDigestAtPaperScale digests the 49-node route+neighbors SDS run at one
// shard bit: 8,444 states standing for 851,952 dscenarios. Fingerprinting
// every member of every dscenario (41.7 M calls) took 8 to 17 s; the value
// is pinned to what that enumeration produced.
func TestDigestAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("852 k dscenarios; CI's test job runs it")
	}
	s, err := ScenarioSpec{Workload: "collect", Topology: "grid:7", Packets: 3, Drops: "route+neighbors", Algorithm: "sds"}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunScenarioSharded(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.DScenarios().String(); got != "851952" {
		t.Fatalf("%s dscenarios, want 851952", got)
	}
	digest, err := rep.Digest(0)
	if err != nil {
		t.Fatal(err)
	}
	const want = "46af899898e5da1c25b918b1b78c6bfae49ad7645385e86df92e514323e3a02e"
	if digest != want {
		t.Errorf("Digest(0) = %s, want %s", digest, want)
	}
}

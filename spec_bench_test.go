package sde_test

import (
	"fmt"
	"testing"

	"sde"
)

// BenchmarkSpeculativePipeline is the speculative-fork pipeline's
// acceptance benchmark: the entangled assume-chain workload (see
// speculationWorkload) run synchronously versus through the
// asynchronous pipeline (one solver worker per CPU). The model pool is on
// in both modes, as it is in every run.
func BenchmarkSpeculativePipeline(b *testing.B) {
	build := func() sde.Scenario { return speculationWorkload(b, 32) }
	modes := []struct {
		name     string
		scenario func() sde.Scenario
	}{
		{"sync", func() sde.Scenario { return build().WithoutSpeculation() }},
		{"spec", build},
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var solves, submitted int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				report, err := sde.RunScenario(mode.scenario())
				if err != nil {
					b.Fatal(err)
				}
				sp := report.SpecStats()
				solves, submitted = sp.Solves, sp.Submitted
			}
			b.ReportMetric(float64(solves), "specsolves/op")
			b.ReportMetric(float64(submitted), "specsubmitted/op")
			_ = fmt.Sprint(solves)
		})
	}
}

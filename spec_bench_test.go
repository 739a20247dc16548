package sde_test

import (
	"fmt"
	"testing"

	"sde"
)

// BenchmarkSpeculativePipeline is the speculative-fork pipeline's
// acceptance benchmark: the entangled assume-chain workload (see
// speculationWorkload) run synchronously versus through the
// asynchronous pipeline at several worker counts. The speedup is
// algorithmic, not just parallel — deferring a chain of d assumes to one
// barrier turns d incremental solves into one deep solve plus d-1
// subsumption hits — so it survives single-core machines.
func BenchmarkSpeculativePipeline(b *testing.B) {
	build := func() sde.Scenario { return speculationWorkload(b, 32) }
	modes := []struct {
		name     string
		scenario func() sde.Scenario
	}{
		{"sync", func() sde.Scenario { return build().WithoutSpeculation() }},
		{"spec-w1", func() sde.Scenario { return build().WithSpeculation(1) }},
		{"spec-w2", func() sde.Scenario { return build().WithSpeculation(2) }},
		{"spec-w4", func() sde.Scenario { return build().WithSpeculation(4) }},
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

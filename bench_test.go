// Go benchmarks. BenchmarkExperiments runs every experiment of
// internal/bench (E1–E20, DESIGN.md §4), which is where each one's
// workload, axes and measured operation are defined; each data point
// of an experiment's table is a sub-benchmark named after its row, so
// `go test -bench` and cmd/apcm-bench time the same code:
//
//	go test -run '^$' -bench 'Experiments/E18$' -benchmem
//
// Sizes are apcm-bench's -scale 1; paper-scale runs use apcm-bench.
package apcm_test

import (
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/bench"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/workload"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) { e.Bench(b, bench.Config{}) })
	}
}

// BenchmarkMetricsOverhead measures the match hot path with the metrics
// registry disabled (the nil fast path every unmetered engine takes) and
// enabled (two histogram observations per event). Compare ns/op between
// the two sub-benchmarks; the enabled variant must stay within a few
// percent of disabled.
func BenchmarkMetricsOverhead(b *testing.B) {
	g := workload.MustNew(workload.Default())
	xs, events := g.Expressions(10000), g.Events(1000)
	for _, reg := range []*metrics.Registry{nil, metrics.New()} {
		name := "disabled"
		if reg != nil {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			e := apcm.MustNew(apcm.Options{Metrics: reg})
			defer e.Close()
			for _, x := range xs {
				if err := e.Subscribe(x); err != nil {
					b.Fatal(err)
				}
			}
			e.Prepare()
			var dst []expr.ID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = e.MatchAppend(dst[:0], events[i%len(events)])
			}
			b.StopTimer()
			if reg != nil && len(reg.Snapshot()) == 0 {
				b.Fatal("registry recorded nothing")
			}
		})
	}
}

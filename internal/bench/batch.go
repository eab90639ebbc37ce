package bench

import (
	"fmt"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/internal/osr"
)

// E17: the batch-vectorized match path. Sweeps batch size with
// cross-event memoization enabled and disabled over a value/attribute
// skewed workload (skew is what makes adjacent, locality-ordered events
// repeat predicate evaluations — the memo's food supply), and reports
// the memo, eligibility-cache and dedup hit ratios alongside throughput.

func init() {
	register(e17())
}

func e17() Experiment {
	return Experiment{
		ID:     "E17",
		Title:  "Ablation: batch size × cross-event memoization",
		Expect: "with memoization on, throughput climbs with batch size as memo/eligibility hit ratios rise; with it off the curve stays flat — batching alone only saves lock traffic (ours: beyond-paper ablation)",
		Run: func(cfg Config) error {
			cfg.sanitize()
			p := baseParams(cfg.Seed)
			p.AttrZipf = 1.2
			p.ValueZipf = 1.5
			// Range-heavy mix: equality predicates resolve through the
			// clusters' equality-union hash and never reach the memo, so
			// the ablation is only informative when the distinct-predicate
			// loop it short-circuits carries real weight.
			p.WEquality = 0.30
			p.WRange = 0.60
			xs, events := gen(p, cfg.n(15000, 200), cfg.n(4096, 256))
			// Locality order, as the OSR window would deliver them.
			osr.Reorder(events)
			t := NewTable("E17: A-PCM batch throughput vs batch size and memoization",
				"batch", "memo ev/s", "no-memo ev/s", "memo hit%", "elig hit%", "dedup%")
			for _, batch := range []int{1, 16, 64, 256, 1024} {
				var rates [2]float64
				var memoPct, eligPct, dedupPct float64
				for i, v := range MemoVariants {
					e, err := buildEngine(cfg, apcm.Options{Ablation: v.Ablation}, xs)
					if err != nil {
						return err
					}
					rates[i] = matchRate(cfg, fmt.Sprintf("batch=%d/%s", batch, v.Name), e, events, batch)
					if v == Full {
						// The hit ratios of one untimed pass over the stream
						// after the timed run, so both modes report the same.
						before := e.Stats()
						var r apcm.BatchResult
						for off := 0; off < len(events); off += batch {
							e.MatchBatchInto(events[off:min(off+batch, len(events))], &r)
						}
						st := e.Stats()
						memoPct = 100 * safeDiv(float64(st.MemoHits-before.MemoHits), float64(st.MemoLookups-before.MemoLookups))
						eligPct = 100 * safeDiv(float64(st.EligHits-before.EligHits), float64(st.EligLookups-before.EligLookups))
						dedupPct = 100 * safeDiv(float64(st.BatchDedups-before.BatchDedups), float64(len(events)))
					}
					e.Close()
				}
				t.AddRow(fmt.Sprintf("%d", batch),
					FormatRate(rates[0]), FormatRate(rates[1]),
					fmt.Sprintf("%.1f", memoPct), fmt.Sprintf("%.1f", eligPct),
					fmt.Sprintf("%.2f", dedupPct))
			}
			emit(cfg, t)
			return nil
		},
	}
}

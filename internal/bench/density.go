package bench

import (
	"fmt"

	"github.com/streammatch/apcm"
)

// E18: density-adaptive layout ablation. The canonical workload compiles
// overwhelmingly sparse postings (most dictionary entries hold a handful
// of members out of a 384-slot cluster), which is exactly the regime the
// hybrid layout, the flat equality tables and the kill-ordered group
// loop target. Each lever is switched off in turn, then all together
// (the pre-PR dense layout), and the same sweep is repeated on a
// redundant pool (E7's max-redundancy regime) where postings are dense —
// the no-regression check that dense workloads lose nothing.

func init() {
	register(e18())
}

func e18() Experiment {
	return Experiment{
		ID:     "E18",
		Title:  "Ablation: posting density × group ordering",
		Expect: "on the sparse canonical workload each lever contributes and all-off is slowest; on the dense redundant regime the variants tie within noise (ours: beyond-paper ablation)",
		Run: func(cfg Config) error {
			cfg.sanitize()
			regimes := []struct {
				label string
				pool  int
			}{
				{"canonical", 0},
				{"redundant", 4},
			}
			t := NewTable("E18: A-PCM throughput vs layout levers and posting density (canonical = sparse, redundant = pool of 4, dense)",
				"regime", "variant", "A-PCM ev/s", "vs all-off", "sparse/dense postings", "flat-eq tables")
			for _, rg := range regimes {
				p := baseParams(cfg.Seed)
				p.PredPoolSize = rg.pool
				xs, events := gen(p, cfg.n(15000, 200), cfg.n(2000, 100))
				rates := make([]float64, len(LayoutVariants))
				layouts := make([]string, len(LayoutVariants))
				tables := make([]int, len(LayoutVariants))
				for i, v := range LayoutVariants {
					e, err := buildEngine(cfg, apcm.Options{Ablation: v.Ablation}, xs)
					if err != nil {
						return err
					}
					rates[i] = matchRate(cfg, rg.label+"/"+v.Name, e, events, 64)
					st := e.Stats()
					layouts[i] = fmt.Sprintf("%d/%d", st.SparsePostings, st.DensePostings)
					tables[i] = st.EqFlatTables
					e.Close()
				}
				base := rates[len(rates)-1] // all-off
				for i, v := range LayoutVariants {
					t.AddRow(rg.label, v.Name, FormatRate(rates[i]),
						fmt.Sprintf("%.2fx", safeDiv(rates[i], base)),
						layouts[i], fmt.Sprintf("%d", tables[i]))
				}
			}
			emit(cfg, t)
			return nil
		},
	}
}

package bench

import "github.com/streammatch/apcm/internal/core"

// Variant is one engine configuration of the ablation study: a name and
// the A-PCM techniques it switches off.
type Variant struct {
	Name     string
	Ablation core.Ablation
}

// The ablation variants, defined once for the E17 and E18 experiments.
// Full is the default engine; each No* variant switches one technique
// off; AllOff switches every layout technique off together, which
// reproduces the dense layout that preceded the density-adaptive one,
// so E18's full/all-off pair is the layout A/B.
var (
	Full       = Variant{"full", core.Ablation{}}
	NoMemo     = Variant{"no-memo", core.Ablate(core.BatchMemo)}
	NoHybrid   = Variant{"no-hybrid", core.Ablate(core.HybridPostings)}
	NoFlatEq   = Variant{"no-flateq", core.Ablate(core.FlatEq)}
	NoOrdering = Variant{"no-ordering", core.Ablate(core.GroupOrder)}
	AllOff     = Variant{"all-off", core.Ablate(core.HybridPostings, core.FlatEq, core.GroupOrder)}
)

// Variants is every ablation variant; the tables after it pick from it,
// one per study. MemoVariants is E17's pair and LayoutVariants is E18's
// sweep with AllOff last as its baseline.
var (
	Variants       = []Variant{Full, NoMemo, NoHybrid, NoFlatEq, NoOrdering, AllOff}
	MemoVariants   = []Variant{Full, NoMemo}
	LayoutVariants = []Variant{Full, NoHybrid, NoFlatEq, NoOrdering, AllOff}
)

package bench

import (
	"slices"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/osr"
	"github.com/streammatch/apcm/metrics"
)

// metricValue reads one counter or gauge from a registry snapshot.
func metricValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, v := range reg.Snapshot() {
		if v.Name == name {
			return v.Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

// TestVariantsReachEngine checks that every ablation variant, and each
// side of the E1 layout A/B, reaches the engine: each switched-off
// technique leaves no trace in the engine's own metrics while the
// default engine shows it on the same workload, and every variant still
// returns the default engine's match sets. It guards the E1 A/B and the
// E17/E18 tables against measuring the default layout under another
// name.
func TestVariantsReachEngine(t *testing.T) {
	// E18's canonical workload (sparse postings) with E17's skew and
	// range-heavy mix, so the memo has repeats to serve.
	p := baseParams(1)
	p.AttrZipf = 1.2
	p.ValueZipf = 1.5
	p.WEquality = 0.30
	p.WRange = 0.60
	xs, events := gen(p, 3000, 512)
	osr.Reorder(events)

	// The metric that shows each technique at work, and the names of
	// the variants that switch it off.
	trace := []struct {
		name   string
		metric string
		off    []string
	}{
		{"hybrid postings", "apcm_posting_sparse", []string{"no-hybrid", "all-off", "legacy"}},
		{"flat equality tables", "apcm_posting_eq_flat_tables", []string{"no-flateq", "all-off", "legacy"}},
		{"group ordering", "apcm_group_order_sorts_total", []string{"no-ordering", "all-off", "legacy"}},
		{"batch memo", "apcm_batch_memo_lookups_total", []string{"no-memo"}},
	}

	var want [][]expr.ID
	for _, v := range append(Variants, LayoutAB...) {
		reg := metrics.New()
		e, err := apcm.New(apcm.Options{Workers: 2, Metrics: reg, Ablation: v.Ablation})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			if err := e.Subscribe(x); err != nil {
				t.Fatal(err)
			}
		}
		e.Prepare()
		var r apcm.BatchResult
		var got [][]expr.ID
		for off := 0; off < len(events); off += 64 {
			e.MatchBatchInto(events[off:min(off+64, len(events))], &r)
			for i := 0; i < r.Len(); i++ {
				ids := append([]expr.ID(nil), r.For(i)...)
				slices.Sort(ids)
				got = append(got, ids)
			}
		}
		for _, tr := range trace {
			n := metricValue(t, reg, tr.metric)
			if slices.Contains(tr.off, v.Name) && n != 0 {
				t.Errorf("%s: %s = %v with %s switched off", v.Name, tr.metric, n, tr.name)
			}
			if (v.Name == "full" || v.Name == "pr3") && n == 0 {
				t.Errorf("%s: %s = 0; the default engine should use %s on this workload", v.Name, tr.metric, tr.name)
			}
		}
		e.Close()

		if v == Full {
			want = got
			continue
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: event %d matched %v, default engine %v", v.Name, i, got[i], want[i])
			}
		}
	}
}

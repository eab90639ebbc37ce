package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/osr"
	"github.com/streammatch/apcm/workload"
)

func batchWorkload(t *testing.T, seed int64, subs int) (*Matcher, *workload.Generator) {
	t.Helper()
	p := workload.Default()
	p.Seed = seed
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig())
	for _, x := range g.Expressions(subs) {
		if err := m.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	m.PrepareAll()
	return m, g
}

func sortedIDs(ids []expr.ID) []expr.ID {
	out := append([]expr.ID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestMatchBatchAppendEquivalence checks the batch path (memo, elig
// cache, equal-event dedup) against per-event MatchWith on a
// locality-ordered batch with duplicated events.
func TestMatchBatchAppendEquivalence(t *testing.T) {
	m, g := batchWorkload(t, 7, 4000)
	rng := rand.New(rand.NewSource(99))

	events := make([]*expr.Event, 0, 256)
	for i := 0; i < 192; i++ {
		events = append(events, g.Event())
	}
	// Duplicates exercise the shared-segment dedup path.
	for i := 0; i < 64; i++ {
		events = append(events, events[rng.Intn(192)])
	}
	osr.Reorder(events)

	s := m.NewScratch()
	offs := make([]int32, 2*len(events))
	ids, nd := m.MatchBatchAppend(s, nil, offs, events, true)
	if nd == 0 {
		t.Fatalf("duplicated events not reported as deduped")
	}

	ref := m.NewScratch()
	for i, ev := range events {
		want := sortedIDs(m.MatchWith(ref, nil, ev))
		got := sortedIDs(ids[offs[2*i]:offs[2*i+1]])
		if len(got) != len(want) {
			t.Fatalf("event %d: got %d matches, want %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("event %d: got %v want %v", i, got, want)
			}
		}
	}

	memoHits, memoLookups, _, eligLookups, dedups := m.BatchCounters()
	if memoLookups > 0 && memoHits == 0 && len(events) > 1 {
		t.Logf("memo saw %d lookups, 0 hits (workload may be equality-only)", memoLookups)
	}
	if eligLookups == 0 {
		t.Fatalf("eligibility cache never consulted")
	}
	if dedups == 0 {
		t.Fatalf("duplicated events not deduped")
	}
}

// TestBatchMemoInvalidatedByChurn mutates clusters between batches and
// checks results stay correct: revisions must invalidate both the memo
// and the eligibility cache.
func TestBatchMemoInvalidatedByChurn(t *testing.T) {
	m, g := batchWorkload(t, 21, 3000)
	rng := rand.New(rand.NewSource(5))

	s := m.NewScratch()
	offs := make([]int32, 2*64)
	live := make([]expr.ID, 0, 3000)
	m.ForEach(func(x *expr.Expression) bool { live = append(live, x.ID); return true })
	nextID := expr.ID(1 << 20)

	for round := 0; round < 8; round++ {
		events := make([]*expr.Event, 64)
		for i := range events {
			// A small event pool makes repeats (and thus cache reuse)
			// certain within and across rounds.
			events[i] = g.Event()
		}
		osr.Reorder(events)
		ids, _ := m.MatchBatchAppend(s, nil, offs, events, true)

		ref := m.NewScratch()
		for i, ev := range events {
			want := sortedIDs(m.MatchWith(ref, nil, ev))
			got := sortedIDs(ids[offs[2*i]:offs[2*i+1]])
			if len(got) != len(want) {
				t.Fatalf("round %d event %d: got %d matches, want %d", round, i, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("round %d event %d: mismatch", round, i)
				}
			}
		}

		// Churn: delete a handful, insert a handful.
		for k := 0; k < 20 && len(live) > 0; k++ {
			i := rng.Intn(len(live))
			if m.Delete(live[i]) {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for _, x := range g.Expressions(20) {
			nx, err := expr.New(nextID, x.Preds...)
			if err != nil {
				t.Fatal(err)
			}
			nextID++
			if err := m.Insert(nx); err != nil {
				t.Fatal(err)
			}
			live = append(live, nx.ID)
		}
	}
}

// TestDisableMemo checks the ablation switch: no memo lookups happen and
// results are unchanged.
func TestDisableMemo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ablation = Ablate(BatchMemo)
	p := workload.Default()
	p.Seed = 3
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg)
	for _, x := range g.Expressions(1500) {
		if err := m.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	m.PrepareAll()

	events := make([]*expr.Event, 128)
	for i := range events {
		events[i] = g.Event()
	}
	osr.Reorder(events)
	s := m.NewScratch()
	offs := make([]int32, 2*len(events))
	ids, _ := m.MatchBatchAppend(s, nil, offs, events, true)
	ref := m.NewScratch()
	for i, ev := range events {
		want := sortedIDs(m.MatchWith(ref, nil, ev))
		got := sortedIDs(ids[offs[2*i]:offs[2*i+1]])
		if len(got) != len(want) {
			t.Fatalf("event %d: got %d matches, want %d", i, len(got), len(want))
		}
	}
	if _, memoLookups, _, _, _ := m.BatchCounters(); memoLookups != 0 {
		t.Fatalf("memo consulted %d times with BatchMemo ablated", memoLookups)
	}
}

// TestPoolCostAppend checks weights are positive for probed and
// unprobed pools alike.
func TestPoolCostAppend(t *testing.T) {
	m, g := batchWorkload(t, 11, 2000)
	s := m.NewScratch()
	for i := 0; i < 500; i++ {
		m.MatchWith(s, nil, g.Event())
	}
	pools := m.CollectPools(nil, g.Event())
	if len(pools) == 0 {
		t.Skip("no candidate pools for event")
	}
	weights := m.PoolCostAppend(nil, pools)
	if len(weights) != len(pools) {
		t.Fatalf("got %d weights for %d pools", len(weights), len(pools))
	}
	for i, w := range weights {
		if w <= 0 {
			t.Fatalf("pool %d: non-positive weight %d", i, w)
		}
	}
}

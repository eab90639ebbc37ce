package core

import (
	"math/bits"

	"github.com/streammatch/apcm/expr"
)

// This file holds the batch-matching machinery: the per-batch predicate
// memo, the per-cluster eligibility cache, the dense per-event value
// table, and the MatchBatchAppend entry point. Together they make a
// locality-ordered batch (OSR order, see internal/osr) progressively
// cheaper: consecutive similar events re-probe the same distinct
// predicates and re-derive the same eligibility sets, so both are cached
// on the Scratch and invalidated by cluster revision, never by time.

// predMemo is an open-addressed hash table memoizing distinct-predicate
// evaluations across the events of one batch. Keys are (cluster rev,
// entry seq, event value); values are the bool Matches result. Instead of
// deleting entries the whole table is epoch-cleared: BeginBatch bumps the
// epoch and every slot whose stamp differs is free. Steady state performs
// zero allocations; the table grows (rare, amortized) when a batch fills
// three quarters of it.
type predMemo struct {
	revs  []uint64
	keys  []uint64 // seq<<32 | uint32(value)
	stamp []uint32
	res   []bool
	epoch uint32
	used  int // entries inserted this epoch
}

const predMemoMinSize = 1024 // power of two

func (t *predMemo) begin() {
	if len(t.revs) == 0 {
		t.grow(predMemoMinSize)
	}
	t.epoch++
	t.used = 0
	if t.epoch == 0 { // uint32 wrap: stale stamps could collide
		for i := range t.stamp {
			t.stamp[i] = 0
		}
		t.epoch = 1
	}
}

func (t *predMemo) grow(n int) {
	t.revs = make([]uint64, n)
	t.keys = make([]uint64, n)
	t.stamp = make([]uint32, n)
	t.res = make([]bool, n)
	t.epoch = 1
	t.used = 0
}

// hash mixes rev and key into a table index (fibonacci hashing on the
// xor-folded pair; the low bits of rev and key are both dense).
func (t *predMemo) hash(rev, key uint64) int {
	h := (rev*0x9e3779b97f4a7c15 ^ key) * 0x9e3779b97f4a7c15
	return int(h >> 32 & uint64(len(t.revs)-1))
}

// find probes for (rev, key). It returns the memoized result when
// present; otherwise slot is the insertion point for put.
//
//apcm:hotpath
func (t *predMemo) find(rev, key uint64) (res bool, ok bool, slot int) {
	i := t.hash(rev, key)
	mask := len(t.revs) - 1
	for {
		if t.stamp[i] != t.epoch {
			return false, false, i
		}
		if t.revs[i] == rev && t.keys[i] == key {
			return t.res[i], true, i
		}
		i = (i + 1) & mask
	}
}

// put inserts at the slot returned by find, growing first when the batch
// has filled 3/4 of the table (the insert then re-probes, and earlier
// entries are simply forgotten — the memo is best-effort).
//
//apcm:hotpath
func (t *predMemo) put(slot int, rev, key uint64, res bool) {
	if t.used*4 >= len(t.revs)*3 {
		t.grow(len(t.revs) * 2)
		_, _, slot = t.find(rev, key)
	}
	t.revs[slot] = rev
	t.keys[slot] = key
	t.stamp[slot] = t.epoch
	t.res[slot] = res
	t.used++
}

// eligEntry caches one cluster's most recent eligibility result: the
// present mask it was derived from and the surviving member words. It is
// valid for exactly one cluster revision (the cache maps rev → entry), so
// cluster mutations can never serve a stale survivor set.
type eligEntry struct {
	present []uint64
	words   []uint64
	any     bool
}

//apcm:hotpath
func (e *eligEntry) matches(present []uint64) bool {
	if len(e.present) != len(present) {
		return false
	}
	for i := range present {
		if e.present[i] != present[i] {
			return false
		}
	}
	return true
}

//apcm:hotpath
func (e *eligEntry) store(present, words []uint64, any bool) {
	e.present = append(e.present[:0], present...)
	e.words = append(e.words[:0], words...)
	e.any = any
}

// eligCache maps cluster revision → cached eligibility. One entry per
// cluster suffices because a locality-ordered batch changes attribute
// sets rarely relative to events.
type eligCache struct {
	m map[uint64]*eligEntry
}

const eligCacheMaxEntries = 512

func (ec *eligCache) entry(rev uint64) *eligEntry {
	if ec.m == nil {
		ec.m = make(map[uint64]*eligEntry)
	}
	e := ec.m[rev]
	if e == nil {
		if len(ec.m) >= eligCacheMaxEntries {
			// Stale revisions accumulate under churn; dropping the whole
			// map is rare and keeps the bookkeeping trivial.
			for k := range ec.m {
				delete(ec.m, k)
			}
		}
		e = &eligEntry{}
		ec.m[rev] = e
	}
	return e
}

// valueTable is a dense attr → value index over the current event:
// epoch-stamped arrays indexed by attribute id, replacing the per-lookup
// linear scan of the event's pair list in the scan kernel. Keeping the
// event pointer pins it, so pointer identity is a sound reuse check.
type valueTable struct {
	ev     *expr.Event
	loaded bool
	usable bool
	vals   []expr.Value
	stamp  []uint32
	epoch  uint32
}

// maxDenseAttr bounds the table; events carrying larger attribute ids
// fall back to Event.Lookup.
const maxDenseAttr = 1 << 16

// begin switches the table to e without loading it (loading is paid only
// if a scan-kernel pool is actually visited).
func (t *valueTable) begin(e *expr.Event) {
	if t.ev != e {
		t.ev = e
		t.loaded = false
	}
}

// ensure loads the current event into the table, reporting whether the
// table is usable for it.
func (t *valueTable) ensure(e *expr.Event) bool {
	t.begin(e)
	if t.loaded {
		return t.usable
	}
	t.loaded = true
	t.usable = true
	t.epoch++
	if t.epoch == 0 {
		for i := range t.stamp {
			t.stamp[i] = 0
		}
		t.epoch = 1
	}
	for _, p := range e.Pairs() {
		a := int(p.Attr)
		if a >= len(t.vals) {
			if a >= maxDenseAttr {
				t.usable = false
				return false
			}
			n := 1 << bits.Len(uint(a))
			vals := make([]expr.Value, n)
			stamp := make([]uint32, n)
			copy(vals, t.vals)
			copy(stamp, t.stamp)
			t.vals, t.stamp = vals, stamp
		}
		t.vals[a] = p.Val
		t.stamp[a] = t.epoch
	}
	return true
}

//apcm:hotpath
func (t *valueTable) lookup(a expr.AttrID) (expr.Value, bool) {
	i := int(a)
	if i < len(t.stamp) && t.stamp[i] == t.epoch {
		return t.vals[i], true
	}
	return 0, false
}

// Memo arming policy: the memo only pays for itself when events in a
// batch actually repeat (predicate, value) evaluations — on uniform
// value distributions nearly every lookup misses and the probing is
// pure overhead. The matcher tracks an EWMA of the per-batch hit ratio
// and stops arming once it settles below memoMinRate, re-probing every
// memoReprobeEvery-th batch so a workload shift (skew appearing, OSR
// window tightening) re-enables it within a bounded number of batches.
const (
	memoRateOne      = 1 << 16          // fixed-point 1.0
	memoMinRate      = memoRateOne / 16 // arm while EWMA hit ratio ≥ 6.25%
	memoRateShift    = 3                // EWMA weight 1/8 per measured batch
	memoReprobeEvery = 32               // cold re-probe cadence, in batches
	memoMinMeasure   = 64               // lookups needed before a batch counts
)

// Sort arming policy: locality-sorting a batch costs a comparison sort
// plus a permutation remap, and only pays through what sorted adjacency
// enables — equal-event dedup and eligibility-cache hits (the predicate
// memo is order-independent). The matcher tracks an EWMA of that reuse
// per sorted event and tells callers to skip the sort once it settles
// below sortMinRate, re-probing periodically like the memo policy.
const (
	sortMinRate      = memoRateOne / 16 // keep sorting while reuse/event ≥ 6.25%
	sortReprobeEvery = 32               // cold re-probe cadence, in batches
	sortMinMeasure   = 16               // events needed before a batch counts
)

// memoUseful decides whether the next batch should arm the memo.
func (m *Matcher) memoUseful() bool {
	if m.memoRate.Load() >= memoMinRate {
		return true
	}
	return m.memoBatchSeq.Add(1)%memoReprobeEvery == 0
}

// SortUseful reports whether locality-sorting the next batch is likely
// to pay for itself on the current workload. Callers that sort must say
// so via MatchBatchAppend's sorted argument — that is what feeds the
// measurement. Every sortReprobeEvery-th call while cold answers true
// so a workload shift re-enables sorting within a bounded number of
// batches.
func (m *Matcher) SortUseful() bool {
	if m.sortRate.Load() >= sortMinRate {
		return true
	}
	return m.sortBatchSeq.Add(1)%sortReprobeEvery == 0
}

// BeginBatch arms cross-event memoization on s for a run of MatchWith
// calls over related events — unless it is disabled or the arming
// policy has measured it useless for the current workload. Pair with
// EndBatch.
func (m *Matcher) BeginBatch(s *Scratch) {
	if m.cfg.Ablation.disables(BatchMemo) || !m.memoUseful() {
		return
	}
	s.kern.memoOn = true
	s.kern.memo.begin()
}

// EndBatch disarms memoization and the eligibility cache, folds the
// batch's hit and reuse ratios into the arming policies' EWMAs, and
// flushes the scratch's cache counters into the matcher's aggregate
// counters.
func (m *Matcher) EndBatch(s *Scratch) {
	k := &s.kern
	if k.memoOn && k.memoLookups >= memoMinMeasure {
		ratio := uint64(k.memoHits) * memoRateOne / uint64(k.memoLookups)
		old := m.memoRate.Load()
		m.memoRate.Store(old - old>>memoRateShift + ratio>>memoRateShift)
	}
	if k.eligOn && k.batchEvents >= sortMinMeasure {
		ratio := uint64(k.dedups+k.eligHits) * memoRateOne / uint64(k.batchEvents)
		if ratio > memoRateOne {
			ratio = memoRateOne
		}
		old := m.sortRate.Load()
		m.sortRate.Store(old - old>>memoRateShift + ratio>>memoRateShift)
	}
	k.memoOn = false
	k.eligOn = false
	k.batchEvents = 0
	if k.memoLookups != 0 {
		m.memoLookups.Add(k.memoLookups)
		m.memoHits.Add(k.memoHits)
		k.memoLookups, k.memoHits = 0, 0
	}
	if k.eligLookups != 0 {
		m.eligLookups.Add(k.eligLookups)
		m.eligHits.Add(k.eligHits)
		k.eligLookups, k.eligHits = 0, 0
	}
	if k.dedups != 0 {
		m.dedups.Add(k.dedups)
		k.dedups = 0
	}
	m.FlushOrderCounters(s)
}

// FlushOrderCounters folds the scratch-local selectivity-order counters
// into the matcher's aggregates. The batch path does this in EndBatch;
// the single-event paths (serial and intra-event parallel) call it when
// a scratch is released, so the counters stay visible on workloads that
// never run a batch.
func (m *Matcher) FlushOrderCounters(s *Scratch) {
	k := &s.kern
	if k.orderSorts != 0 {
		m.orderSorts.Add(k.orderSorts)
		k.orderSorts = 0
	}
	if k.earlyExits != 0 {
		m.earlyExits.Add(k.earlyExits)
		k.earlyExits = 0
	}
}

// MatchBatchAppend matches events in order, appending every match to ids
// and recording each event's result segment as offs[2i] (start) and
// offs[2i+1] (end) — segments of adjacent equal events alias each other.
// offs must have length ≥ 2·len(events). Callers get the full benefit by
// sorting the batch into locality order (osr.Reorder) first and passing
// sorted=true: adjacent equal events are matched once, and near-equal
// events hit the predicate memo and eligibility cache. sorted both arms
// the eligibility cache and feeds the sort-arming policy (SortUseful),
// so it must reflect what the caller actually did. Returns the appended
// ids and how many events were answered from an adjacent equal event's
// segment. Concurrency follows MatchWith: distinct Scratch values may
// run concurrently, never concurrent with writes.
func (m *Matcher) MatchBatchAppend(s *Scratch, ids []expr.ID, offs []int32, events []*expr.Event, sorted bool) ([]expr.ID, int64) {
	if len(events) > 1 { // cross-event reuse needs more than one event
		m.BeginBatch(s)
		s.kern.eligOn = sorted
		s.kern.batchEvents = int64(len(events))
	}
	for i := 0; i < len(events); {
		start := int32(len(ids))
		ids = m.MatchWith(s, ids, events[i])
		end := int32(len(ids))
		offs[2*i], offs[2*i+1] = start, end
		j := i + 1
		for j < len(events) && events[j].Equal(events[i]) {
			offs[2*j], offs[2*j+1] = start, end
			j++
		}
		s.kern.dedups += int64(j - i - 1)
		i = j
	}
	dedups := s.kern.dedups
	m.EndBatch(s)
	return ids, dedups
}

// BatchCounters reports the cumulative cross-event cache effectiveness
// counters: predicate-memo lookups/hits, eligibility-cache lookups/hits,
// and events answered by an adjacent equal event's result. Counters are
// flushed by EndBatch, so in-flight batches are not yet visible.
func (m *Matcher) BatchCounters() (memoHits, memoLookups, eligHits, eligLookups, dedups int64) {
	return m.memoHits.Load(), m.memoLookups.Load(),
		m.eligHits.Load(), m.eligLookups.Load(), m.dedups.Load()
}

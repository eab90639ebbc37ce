// Package bench is the experiment harness: every table and figure of
// the evaluation (E1–E14, see DESIGN.md §4), the beyond-paper ablations
// (E15–E18), the sharded tier (E19) and the cold-start restore (E20) is
// a named experiment here, and this is the only definition of each
// one's workload, axes, variants and measured operation.
//
// An experiment runs in two modes that differ only in how a data point
// is timed. cmd/apcm-bench calls Run, which loops each point until
// Config.MinMeasure has elapsed and prints the table. The root package's
// BenchmarkExperiments calls Bench, which makes each point a
// sub-benchmark named after its table row (E18/canonical/full) and
// times it over b.N operations.
//
// Sizes are expressed at Scale=1 (seconds-per-experiment on a laptop)
// and multiply with Config.Scale; the paper's absolute sizes (millions
// of subscriptions) are reached with large scales. The reproduction
// target is the shape of each curve, not the authors' absolute numbers.
package bench

import (
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/stats"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/workload"
)

// Config parameterises an experiment run.
type Config struct {
	// Out receives the experiment's table.
	Out io.Writer
	// Scale multiplies workload sizes; 1.0 is the CI-friendly default.
	Scale float64
	// Workers is the engine worker count (0 = GOMAXPROCS).
	Workers int
	// Seed drives workload generation.
	Seed int64
	// MinMeasure is the minimum wall-clock time spent per data point.
	MinMeasure time.Duration
	// CSV emits tables as CSV instead of aligned text.
	CSV bool
	// Shards is the shard-count axis of the sharding sweep (E19).
	// Nil/empty means the default {1, 2, 4, 8, 16}.
	Shards []int
	// Metrics, when non-nil, is attached to every engine the experiments
	// build, so a live scrape endpoint can watch a long run.
	Metrics *metrics.Registry

	// runPoint, set by Experiment.Bench, runs each data point's timed
	// loop as a benchmark named after its row instead of looping until
	// MinMeasure.
	runPoint func(name string, body func(*testing.B))
}

// emit renders a finished table according to the configured format.
func emit(cfg Config, t *Table) {
	if cfg.CSV {
		t.FprintCSV(cfg.Out)
		return
	}
	t.Fprint(cfg.Out)
}

func (c *Config) sanitize() {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MinMeasure <= 0 {
		c.MinMeasure = 200 * time.Millisecond
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

// n scales a base count, with a floor of lo.
func (c *Config) n(base, lo int) int {
	v := int(float64(base) * c.Scale)
	if v < lo {
		v = lo
	}
	return v
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	// ID is the experiment key from DESIGN.md §4 (E1..E20).
	ID string
	// Title is the figure/table caption.
	Title string
	// Expect summarises the shape the paper's evaluation reports, which
	// EXPERIMENTS.md compares against.
	Expect string
	// Run executes the experiment and writes its table to cfg.Out.
	Run func(cfg Config) error
}

// Bench runs e under go test: each data point of its table becomes a
// sub-benchmark of b, named after its row and timed over b.N
// operations. cfg.MinMeasure is unused.
func (e Experiment) Bench(b *testing.B, cfg Config) {
	cfg.runPoint = func(name string, body func(*testing.B)) { b.Run(name, body) }
	if err := e.Run(cfg); err != nil {
		b.Fatal(err)
	}
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in numeric id order (E1, E2, ... E20),
// regardless of registration order across files.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return expNum(out[i].ID) < expNum(out[j].ID) })
	return out
}

func expNum(id string) int {
	n := 0
	for i := 1; i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// baseParams is the canonical workload from DESIGN.md §4.
func baseParams(seed int64) workload.Params {
	p := workload.Default()
	p.Seed = seed
	return p
}

// buildEngine subscribes xs into a fresh engine built with opts, with
// cfg.Workers unless opts sets Workers and instrumented with
// cfg.Metrics, and precompiles it.
func buildEngine(cfg Config, opts apcm.Options, xs []*expr.Expression) (*apcm.Engine, error) {
	if opts.Workers == 0 {
		opts.Workers = cfg.Workers
	}
	opts.Metrics = cfg.Metrics
	e, err := apcm.New(opts)
	if err != nil {
		return nil, err
	}
	for _, x := range xs {
		if err := e.Subscribe(x); err != nil {
			e.Close()
			return nil, err
		}
	}
	e.Prepare()
	return e, nil
}

// rate is the throughput primitive every timed data point goes
// through. op does one unit of work (a batch of events, a restore, a
// pass of updates) and returns how many items it handled; rate returns
// items per second. Under apcm-bench it calls op until cfg.MinMeasure
// has elapsed, at least once; under go test it calls op b.N times as
// the benchmark name and reports the rate as unit.
func rate(cfg Config, name, unit string, op func() (int, error)) (float64, error) {
	if cfg.runPoint == nil {
		n := 0
		start := time.Now()
		for calls := 0; calls == 0 || time.Since(start) < cfg.MinMeasure; calls++ {
			k, err := op()
			if err != nil {
				return 0, err
			}
			n += k
		}
		return float64(n) / time.Since(start).Seconds(), nil
	}
	var r float64
	var err error
	cfg.runPoint(name, func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k, opErr := op()
			if err = opErr; err != nil {
				b.Fatal(err)
			}
			n += k
		}
		b.StopTimer()
		r = float64(n) / b.Elapsed().Seconds()
		b.ReportMetric(r, unit)
	})
	return r, err
}

// minSamples is the fewest calls a latency point samples under
// apcm-bench, so slow baselines still get a distribution.
const minSamples = 100

// latency is the latency primitive: it times every call of op into a
// histogram (nanoseconds). Under apcm-bench it samples until
// cfg.MinMeasure has elapsed and at least minSamples calls were made;
// under go test it samples b.N calls as the benchmark name and reports
// the median and 99th percentile as p50-ns and p99-ns.
func latency(cfg Config, name string, op func()) *stats.Histogram {
	h := stats.NewLatencyHistogram()
	sample := func() {
		t0 := time.Now()
		op()
		h.AddDuration(time.Since(t0))
	}
	if cfg.runPoint == nil {
		start := time.Now()
		for h.Count() < minSamples || time.Since(start) < cfg.MinMeasure {
			sample()
		}
		return h
	}
	cfg.runPoint(name, func(b *testing.B) {
		h = stats.NewLatencyHistogram() // keep only the final b.N run
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sample()
		}
		b.StopTimer()
		b.ReportMetric(h.Quantile(0.50), "p50-ns")
		b.ReportMetric(h.Quantile(0.99), "p99-ns")
	})
	return h
}

// batchMatcher is the match surface the timed points drive, satisfied
// by both *apcm.Engine and *shard.Group.
type batchMatcher interface {
	MatchAppend([]expr.ID, *expr.Event) []expr.ID
	MatchBatchInto([]*expr.Event, *apcm.BatchResult)
}

// matchRate is the events/s of m replaying events in batches of batch
// through the zero-copy MatchBatchInto path with one reused result, so
// the number reflects the kernel, not result-slice churn. Two batches'
// worth of events warm it up first (compiled clusters, adaptive
// estimates).
func matchRate(cfg Config, name string, m batchMatcher, events []*expr.Event, batch int) float64 {
	var r apcm.BatchResult
	m.MatchBatchInto(events[:min(len(events), 2*batch)], &r)
	off := 0
	v, _ := rate(cfg, name, "events/s", func() (int, error) {
		end := min(off+batch, len(events))
		m.MatchBatchInto(events[off:end], &r)
		n := end - off
		if off = end; off == len(events) {
			off = 0
		}
		return n, nil
	})
	return v
}

// matchLatency samples the single-event MatchAppend path over events,
// the path a broker publish takes, after a 64-event warm-up.
func matchLatency(cfg Config, name string, m batchMatcher, events []*expr.Event) *stats.Histogram {
	var dst []expr.ID
	for _, ev := range events[:min(64, len(events))] {
		dst = m.MatchAppend(dst[:0], ev)
	}
	i := 0
	return latency(cfg, name, func() {
		dst = m.MatchAppend(dst[:0], events[i%len(events)])
		i++
	})
}

// measureAlgorithms builds one engine per algorithm over xs and returns
// each algorithm's throughput on events, timed as the point prefix
// followed by the algorithm name.
func measureAlgorithms(cfg Config, prefix string, algs []apcm.Algorithm, xs []*expr.Expression, events []*expr.Event) (map[apcm.Algorithm]float64, error) {
	out := make(map[apcm.Algorithm]float64, len(algs))
	for _, alg := range algs {
		e, err := buildEngine(cfg, apcm.Options{Algorithm: alg}, xs)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", alg, err)
		}
		out[alg] = matchRate(cfg, prefix+alg.String(), e, events, 64)
		e.Close()
	}
	return out, nil
}

func algHeaders(algs []apcm.Algorithm) []string {
	h := make([]string, len(algs))
	for i, a := range algs {
		h[i] = a.String() + " ev/s"
	}
	return h
}

// Command perfbench is the repository's end-to-end benchmark. It stands
// up an in-process broker.Server on a loopback listener and drives it
// from this process over two client connections, each of which both
// publishes and consumes:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run sets the broker up (several times, for a steady set-up
// figure), then measures rounds of a closed-loop segment (a fixed
// in-flight window per connection: throughput), a one-in-flight segment
// (latency without queueing) and an open-loop segment (a seeded, bursty
// schedule at a fixed offered rate: latency from each event's due
// time). Every delivery is checked against reference deliveries
// computed with the Counting algorithm. With --trace 0 the last line of
// standard output carries the end-to-end metrics; with --trace 1 a
// separately traced run carries the per-layer metrics. The line before
// it is the full report: environment, workload parameters, every
// metric and the failure counts. A run with any failure exits non-zero.
//
// WORKLOADS.md lists what each workload is for and which metrics a
// change to each layer is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// watchdogAfter keeps every run, hung or not, inside the 180 s a run
// may take.
const watchdogAfter = 160 * time.Second

// A trace-0 run stands the broker up at least minSetups times and
// until setupBudget has been spent (at most maxSetups times); the
// set-up metric is the median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name the metrics the last output line carries,
// in BENCHMARK.json's order.
var endToEnd = []string{
	"setup_s", "events_per_s", "deliveries_per_s", "rtt_p50_us",
	"cpu_us_per_event", "heap_mb", "subscribe_p50_us",
}

var perLayer = []string{
	"client.publish_p50_us", "client.writes_per_event",
	"broker.ingress_p50_us", "broker.ingress_p99_us",
	"broker.ingress_wait_p50_us", "broker.ingress_wait_p99_us", "broker.ingress_decode_p50_us", "broker.handle_mean_us",
	"broker.egress_p50_us", "broker.egress_p99_us",
	"broker.writes_per_event", "broker.write_bytes_per_event", "broker.write_busy_frac", "broker.ids_per_frame",
	"apcm.match_p50_us", "apcm.match_p99_us", "apcm.match_busy_frac", "apcm.ids_per_match",
	"apcm.subscribe_p50_us", "apcm.unsubscribe_p50_us",
	"apcm.solo_match_us_per_event", "apcm.solo_batch64_us_per_event",
	"expr.encode_ns_per_event", "expr.decode_ns_per_event", "commitlog.solo_append_p50_us",
	"runtime.allocs_per_event", "runtime.gc_cpu_frac", "runtime.sched_wait_p99_us",
	"loadgen.late_p99_us", "trace.overhead_frac",
}

// unitOf derives a metric's unit from its name: every latency is in
// µs (or ns where stated), every rate per second.
func unitOf(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_per_s", "1/s"}, {"_us_per_event", "us"}, {"_ns_per_event", "ns"}, {"bytes_per_event", "B"},
		{"_us", "us"}, {"_s", "s"}, {"_mb", "MiB"}, {"_frac", "ratio"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	dir      string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name (see WORKLOADS.md)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds, all segments together")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.dir, "dir", ".bench_build", "directory for logs, spans and reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := findSpec(o.workload)
	if err != nil || o.seconds < 2 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q (%v), seconds %d, trace %d\n", o.workload, err, o.seconds, o.trace)
		return 2
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", sp.name, o.seed, o.trace)
	resultsDir := filepath.Join(o.dir, "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	wd := time.AfterFunc(watchdogAfter, func() {
		buf := make([]byte, 16<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(stderr, "perfbench: watchdog: run exceeded %v; goroutines:\n%s\n", watchdogAfter, buf)
		_ = os.WriteFile(filepath.Join(resultsDir, name+".goroutines.txt"), buf, 0o644)
		line, _ := json.Marshal(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		fmt.Fprintf(stdout, "%s\n", line)
		os.Exit(3)
	})
	defer wd.Stop()

	rep, res, err := measure(sp, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	full, err := json.Marshal(jsonSafe(rep))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: encoding the report: %v\n", name, err)
		return 1
	}
	_ = os.WriteFile(filepath.Join(resultsDir, name+".json"), full, 0o644)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n%s\n", full, line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s failed: %d of %d attempted (%v)\n", name, res.Failed, res.Attempted, rep["failures"])
		return 1
	}
	return 0
}

// jsonSafe replaces the non-finite numbers JSON cannot carry (a +Inf
// latency percentile when deliveries went missing, a NaN from an empty
// sample) with their names, in the report's value types.
func jsonSafe(v any) any {
	switch v := v.(type) {
	case float64:
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprint(v)
		}
		return v
	case metric:
		return map[string]any{"value": jsonSafe(v.Value), "unit": v.Unit}
	case []float64:
		out := make([]any, len(v))
		for i, x := range v {
			out[i] = jsonSafe(x)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(v))
		for k, x := range v {
			out[k] = jsonSafe(x)
		}
		return out
	case map[string]float64:
		out := make(map[string]any, len(v))
		for k, x := range v {
			out[k] = jsonSafe(x)
		}
		return out
	case map[string][]float64:
		out := make(map[string]any, len(v))
		for k, x := range v {
			out[k] = jsonSafe(x)
		}
		return out
	case map[string]metric:
		out := make(map[string]any, len(v))
		for k, x := range v {
			out[k] = jsonSafe(x)
		}
		return out
	}
	return v
}

// env records what the figures were measured on.
func env(o options, sp spec) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "cpu": cpuModel(),
		"go": runtime.Version(), "commit": commit, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"workload": map[string]any{
			"name": sp.name, "why": sp.why, "subscriptions": sp.subs, "base_events": baseEvents,
			"durable": sp.durable, "repl": sp.repl, "probes": len(sp.probes), "connections": conns,
			"conn_share": connShare, "window": sp.window, "offered_events_per_s": sp.rate,
			"churn_subscribes_per_s_per_conn": sp.churn, "churn_live": sp.churnLive, "generator": sp.gen,
		},
	}
}

// failures accumulates the attempted/failed accounting of a run:
// failed = missing + unexpected deliveries + publish and churn errors
// + uncompleted events + dropped connections (+ degraded repl-sync
// deliveries), attempted = expected deliveries + events.
type failures struct {
	events, expected, missing, unexpected, incomplete int64
	pubErrs, subErrs, dropped, degraded, strays       int64
	digestWant, digestGot                             uint64
	checks                                            []string
}

func (f *failures) add(l *ledger) {
	t := l.tally()
	f.events += t.events
	f.expected += t.expected
	f.missing += t.missing
	f.unexpected += t.unexpected
	f.incomplete += t.incomplete
	f.digestWant += t.digestWant
	f.digestGot += t.digestGot
	f.pubErrs += l.pubErrs.Load()
	f.subErrs += l.subErrs.Load()
}

// deliveryErrors counts the delivery failures that make further rounds
// pointless: the oracle already failed the run.
func (f *failures) deliveryErrors() int64 { return f.missing + f.unexpected + f.incomplete }

func (f *failures) failed() int64 {
	return f.missing + f.unexpected + f.strays + f.incomplete + f.pubErrs + f.subErrs + f.dropped + f.degraded + int64(len(f.checks))
}

func (f *failures) report() map[string]any {
	att := f.events + f.expected
	return map[string]any{
		"events": f.events, "expected_deliveries": f.expected, "missing": f.missing,
		"unexpected": f.unexpected + f.strays, "incomplete_events": f.incomplete,
		"publish_errors": f.pubErrs, "churn_errors": f.subErrs, "dropped_connections": f.dropped,
		"repl_degraded": f.degraded, "failed_checks": f.checks,
		"digest_expected": fmt.Sprintf("%016x", f.digestWant), "digest_delivered": fmt.Sprintf("%016x", f.digestGot),
		"failed_frac": float64(f.failed()) / float64(max(att, 1)),
	}
}

// Phases use disjoint sequence-number ranges of phaseSpan, so a late
// delivery from one phase can never be credited to the next.
const phaseSpan = 1 << 21

func phaseBase(k int) int64 { return int64(k) * phaseSpan }

func measure(sp spec, o options) (map[string]any, result, error) {
	in, err := genInputs(sp, o.seed)
	if err != nil {
		return nil, result{}, fmt.Errorf("generating inputs: %w", err)
	}
	rec := &recorder{seqAttr: in.seqAttr}
	runDir := filepath.Join(o.dir, "tmp", fmt.Sprintf("%s-%d-%d", sp.name, o.seed, os.Getpid()))
	defer os.RemoveAll(runDir)

	dur := time.Duration(o.seconds) * time.Second
	closedDur, idleDur := dur*7/20, dur*3/20
	openDur := dur - closedDur - idleDur
	rep := map[string]any{"env": env(o, sp)}
	m := map[string]float64{}
	var f failures
	total0, steal0 := hostTicks()

	phases := untraced
	if o.trace == 1 {
		phases = traced
	}
	if err := phases(sp, in, rec, o, runDir, [3]time.Duration{closedDur, idleDur, openDur}, m, &f, rep); err != nil {
		return nil, result{}, err
	}

	if total1, steal1 := hostTicks(); total1 > total0 {
		rep["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}

	names := endToEnd
	if o.trace == 1 {
		names = perLayer
	}
	res := result{Attempted: max(f.events+f.expected, 1), Metrics: map[string]metric{}}
	for _, n := range names {
		v, ok := m[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			f.checks = append(f.checks, "metric "+n+" not measured")
			v = -1
		}
		res.Metrics[n] = metric{Value: v, Unit: unitOf(n)}
	}
	if f.digestWant != f.digestGot {
		f.checks = append(f.checks, "delivery digest differs from the oracle's")
	}
	res.Failed = f.failed()
	res.Correct = res.Failed == 0
	all := map[string]metric{}
	for n, v := range m {
		all[n] = metric{Value: v, Unit: unitOf(n)}
	}
	rep["metrics"] = all
	rep["failures"] = f.report()
	return rep, res, nil
}

// rounds splits a trace-0 run's measured time into rounds of a
// closed-loop, a one-in-flight and an open-loop segment. Each metric
// is the median over the rounds, so a disturbance that lasts less than
// half the run does not move it.
const rounds = 10

// untraced is the --trace 0 run: set-up repeated, then the rounds. The
// closed loop gives throughput and subscribe round trips under load,
// the one-in-flight segment the broker path's latency without
// queueing, the open loop latency from due times at a fixed rate.
func untraced(sp spec, in *inputs, rec *recorder, o options, runDir string, durs [3]time.Duration,
	m map[string]float64, f *failures, rep map[string]any) error {
	var st *stack
	var setupS []float64
	var spent time.Duration
	for i := 0; ; i++ {
		start := time.Now()
		var err error
		st, err = standUp(sp, in, rec, nil, filepath.Join(runDir, fmt.Sprint("setup-", i)))
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		spent += time.Since(start)
		setupS = append(setupS, time.Since(start).Seconds())
		if i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupBudget) {
			break
		}
		st.close()
	}
	defer st.close()
	m["setup_s"] = median(setupS)
	rep["setup_s_all"] = setupS
	// The expressions live on in the engine; the generator's copies
	// would only inflate the heap figure.
	in.subs = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	cseg, iseg, oseg := durs[0]/rounds, durs[1]/rounds, durs[2]/rounds
	window := (cseg - cseg/5).Seconds()
	per := map[string][]float64{}
	var cpu float64
	var events int64
	samples := map[string]int{}
	for r := 0; r < rounds; r++ {
		closed := st.closedLoop(phaseBase(3*r), cseg, cseg/5, sp.window, nil)
		f.add(closed)
		// A Subscribe issued here waits behind the connection's window
		// of publishes (the broker reads a connection's frames in
		// order): the round trip is head-of-line blocking, about
		// window / per-connection throughput, plus the subscribe path.
		sub := usOf(closed.subLat)
		add := func(name string, v float64) { per[name] = append(per[name], v) }
		add("events_per_s", float64(closed.completed.Load())/window)
		add("deliveries_per_s", float64(closed.delivered.Load())/window)
		add("subscribe_p50_us", quantile(sub, 0.5))
		add("subscribe_p99_us", quantile(sub, 0.99))

		idle := st.closedLoop(phaseBase(3*r+1), iseg, iseg/5, 1, nil)
		f.add(idle)
		rtt := latencies(idle)
		add("rtt_p50_us", quantile(rtt, 0.5))
		add("rtt_p99_us", quantile(rtt, 0.99))

		open := st.openLoop(phaseBase(3*r+2), o.seed*rounds+int64(r), oseg, oseg/6, nil)
		f.add(open.l)
		lat := latencies(open.l)
		// Without a window in front of it; but an open loop keeps its
		// schedule through host stalls, so this is reported, not gated.
		add("subscribe_open_p50_us", quantile(usOf(open.l.subLat), 0.5))
		add("e2e_p50_us", quantile(lat, 0.5))
		add("e2e_p90_us", quantile(lat, 0.9))
		add("e2e_p99_us", quantile(lat, 0.99))
		cpu += open.cpuSec
		events += open.measuredEvents
		samples["e2e"] += len(lat)
		samples["rtt"] += len(rtt)
		samples["subscribe"] += len(sub)
		if f.deliveryErrors() > 0 {
			rep["stopped_after_round"] = r
			break
		}
	}
	for name, vs := range per {
		// A round may have no sample of a figure (no Subscribe completed
		// inside a short segment); the median is over the rounds that do.
		m[name] = median(slices.DeleteFunc(slices.Clone(vs), math.IsNaN))
	}
	m["cpu_us_per_event"] = cpu * 1e6 / float64(events)
	samples["open_events"] = int(events)
	rep["samples"] = samples
	rep["rounds"] = per
	f.strays = rec.strays.Load()
	f.dropped = st.droppedConns()
	if sp.repl {
		f.degraded = int64(snapshot(st.reg)["apcm_broker_repl_sync_degraded_total"].Value)
	}
	rep["broker_log_lines"] = st.logs.lines
	return nil
}

// latencies is every measured delivery latency of a timed ledger in
// µs, with each missing delivery as +Inf.
func latencies(l *ledger) []float64 {
	var lat []float64
	for c := 0; c < conns; c++ {
		ns, _ := l.timedDeliveries(c)
		lat = append(lat, usOf(ns)...)
	}
	for n := l.missingMeasured(); n > 0; n-- {
		lat = append(lat, math.Inf(1))
	}
	return lat
}

// traced is the --trace 1 run: one set-up with every seam wrapped, a
// closed-loop phase split into an untraced and a traced half (their
// throughput ratio is the tracing overhead), a traced open-loop phase
// broken into stages, and the standalone replays.
func traced(sp spec, in *inputs, rec *recorder, o options, runDir string, durs [3]time.Duration,
	m map[string]float64, f *failures, rep map[string]any) error {
	closedDur, openDur := durs[0], durs[1]+durs[2]
	tr := &tracer{seqAttr: in.seqAttr}
	st, err := standUp(sp, in, rec, tr, filepath.Join(runDir, "traced"))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer st.close()

	// Untraced, traced, traced, untraced quarters, so that a drift over
	// the phase cancels out of the overhead.
	quarter := closedDur / 4
	var plainEvents, tracedEvents int64
	for q, on := range []bool{false, true, true, false} {
		if on {
			tr.beginPhase(phaseBase(q), 0)
		}
		tr.on.Store(on)
		l := st.closedLoop(phaseBase(q), quarter, quarter/5, sp.window, tr)
		f.add(l)
		if on {
			tracedEvents += l.completed.Load()
		} else {
			plainEvents += l.completed.Load()
		}
	}
	m["trace.overhead_frac"] = 1 - float64(tracedEvents)/float64(plainEvents)
	tr.on.Store(true)

	tr.resetCounters()
	open := st.openLoop(phaseBase(4), o.seed, openDur, openDur/6, tr)
	tr.on.Store(false)
	f.add(open.l)
	f.strays = rec.strays.Load()
	f.dropped = st.droppedConns()

	stages, err := tr.analyze(open.l, filepath.Join(o.dir, "results", sp.name+".spans.jsonl"))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if stages.sumErr > 0.02 {
		f.checks = append(f.checks, fmt.Sprintf("stage means add up to e2e only within %.3f", stages.sumErr))
	}
	rep["broker_log_lines"] = st.logs.lines
	rep["stages"] = map[string]any{
		"deliveries": stages.deliveries, "complete": stages.complete, "e2e_mean_us": stages.e2eMean,
		"stage_mean_us": stages.stageMean, "self_mean_us": stages.selfMean, "sum_err_frac": stages.sumErr,
		"ingress_split_mean_us": stages.splitMean,
	}
	var events int64
	for c := range open.l.published {
		events += open.l.published[c].Load()
	}
	ev := float64(events)
	wall := openDur.Seconds() * 1e9
	m["client.publish_p50_us"] = quantile(stages.publish, 0.5)
	m["client.writes_per_event"] = float64(tr.clientWrites.Load()) / ev
	m["broker.ingress_p50_us"] = quantile(stages.ingress, 0.5)
	m["broker.ingress_p99_us"] = quantile(stages.ingress, 0.99)
	m["broker.ingress_wait_p50_us"] = quantile(stages.ingressWait, 0.5)
	m["broker.ingress_wait_p99_us"] = quantile(stages.ingressWait, 0.99)
	m["broker.ingress_decode_p50_us"] = quantile(stages.ingressDecode, 0.5)
	m["broker.handle_mean_us"] = float64(tr.handleNs.Load()) / float64(tr.handled.Load()) / 1e3
	m["broker.egress_p50_us"] = quantile(stages.egress, 0.5)
	m["broker.egress_p99_us"] = quantile(stages.egress, 0.99)
	m["broker.writes_per_event"] = float64(tr.serverWrites.Load()) / ev
	m["broker.write_bytes_per_event"] = float64(tr.serverWriteBytes.Load()) / ev
	m["broker.write_busy_frac"] = float64(tr.serverWriteNs.Load()) / (wall * conns)
	m["broker.ids_per_frame"] = float64(tr.frameIDs.Load()) / float64(tr.frames.Load())
	m["apcm.match_mean_us"] = float64(tr.matchNs.Load()) / float64(tr.matches.Load()) / 1e3
	m["apcm.match_p50_us"] = quantile(stages.match, 0.5)
	m["apcm.match_p99_us"] = quantile(stages.match, 0.99)
	m["apcm.match_busy_frac"] = float64(tr.matchNs.Load()) / wall
	m["apcm.ids_per_match"] = float64(tr.matchIDs.Load()) / float64(tr.matches.Load())
	tr.subMu.Lock()
	m["apcm.subscribe_p50_us"] = quantile(usOf(tr.subNs), 0.5)
	m["apcm.unsubscribe_p50_us"] = quantile(usOf(tr.unsubNs), 0.5)
	tr.subMu.Unlock()
	mev := float64(open.measuredEvents)
	m["runtime.allocs_per_event"] = float64(open.rtTo.allocs-open.rtFrom.allocs) / mev
	m["runtime.gc_cpu_frac"] = gcCPUFrac(open.rtFrom, open.rtTo)
	m["runtime.sched_wait_p99_us"] = schedWaitP99(open.rtFrom, open.rtTo)
	m["loadgen.late_p99_us"] = quantile(usOf(open.late), 0.99)
	m["e2e_mean_us"] = stages.e2eMean

	if sp.durable {
		durableLayers(st, open, mev, m, f)
	}
	st.close()

	// Standalone replays, with the broker gone so they run alone.
	evs, err := soloEvents(in)
	if err != nil {
		return err
	}
	const soloDur = 300 * time.Millisecond
	if m["expr.encode_ns_per_event"], m["expr.decode_ns_per_event"], err = soloCodec(evs, soloDur); err != nil {
		return fmt.Errorf("codec replay: %w", err)
	}
	single, batch, err := soloMatch(in, evs, soloDur)
	if err != nil {
		f.checks = append(f.checks, err.Error())
	}
	m["apcm.solo_match_us_per_event"], m["apcm.solo_batch64_us_per_event"] = single, batch
	if m["commitlog.solo_append_p50_us"], err = soloAppend(runDir, durableRecord(evs[0]), soloDur); err != nil {
		return fmt.Errorf("commit-log replay: %w", err)
	}
	return nil
}

// durableLayers reads the commit-log and replication figures of a
// durable workload: the log's own histograms (cumulative over the
// traced run) and counter deltas over the measured open-loop window.
func durableLayers(st *stack, open *openResult, events float64, m map[string]float64, f *failures) {
	snap := snapshot(st.reg)
	appendLat := snap["apcm_broker_log_append_latency_ns"].Hist
	m["commitlog.append_p50_us"] = appendLat.P50 / 1e3
	m["commitlog.append_p99_us"] = appendLat.P99 / 1e3
	d := func(name string) float64 { return open.durableAfter[name] - open.durableBefore[name] }
	m["commitlog.appends_per_event"] = d("apcm_broker_log_appends_total") / events
	m["commitlog.appends_per_flush"] = d("apcm_broker_log_appends_total") / d("apcm_broker_log_flushes_total")
	m["commitlog.bytes_per_event"] = d("apcm_broker_log_flushed_bytes_total") / events
	if !st.sp.repl {
		return
	}
	m["repl.lag_records_p99"] = quantile(open.lagSamples, 0.99)
	m["repl.sync_waits_per_event"] = d("apcm_broker_repl_sync_waits_total") / events
	m["repl.degraded_total"] = snap["apcm_broker_repl_sync_degraded_total"].Value
	f.degraded = int64(m["repl.degraded_total"])
}

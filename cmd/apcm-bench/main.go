// Command apcm-bench regenerates the evaluation's tables and figures
// (experiments E1–E14, see DESIGN.md §4 and EXPERIMENTS.md), the
// beyond-paper ablations (E15–E18), the sharded-tier scaling sweep
// (E19, tuned with -shards) and the cold-start restore (E20). The same
// experiments run under go test as the sub-benchmarks of
// BenchmarkExperiments; this command times each data point for at least
// -measure and prints the tables.
//
// Usage:
//
//	apcm-bench -list
//	apcm-bench -exp E1,E7 -scale 1 -workers 0
//	apcm-bench -exp all -scale 5 -measure 2s
//
// Scale multiplies workload sizes: -scale 1 is laptop/CI friendly,
// -scale 50 and a few minutes reach paper-sized subscription counts.
//
// -metrics-addr serves the live observability surface (/metrics,
// /metrics.json, /debug/pprof) while experiments run, and logs a metrics
// summary line every -metrics-log interval — useful for watching a
// multi-hour scale-50 run or grabbing a CPU profile mid-experiment.
//
// Profiling: -cpuprofile covers the whole run; -memprofile writes a heap
// profile at exit (after a final GC, so it shows retained memory, not
// transient garbage); -allocs prints per-experiment totals of heap
// objects and bytes allocated — a quick allocation-regression check that
// needs no pprof round trip.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/streammatch/apcm/internal/bench"
	"github.com/streammatch/apcm/metrics"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		exps    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale   = flag.Float64("scale", 1.0, "workload size multiplier")
		workers = flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
		seed    = flag.Int64("seed", 1, "workload seed")
		measure = flag.Duration("measure", 500*time.Millisecond, "minimum measurement time per data point")
		csv     = flag.Bool("csv", false, "emit tables as CSV")
		shards  = flag.String("shards", "", "comma-separated shard counts for the E19 sweep (default 1,2,4,8,16)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
		allocs  = flag.Bool("allocs", false, "report heap allocation totals per experiment")
		metAddr = flag.String("metrics-addr", "", "optional observability address (serves /metrics, /metrics.json and /debug/pprof)")
		metLog  = flag.Duration("metrics-log", 0, "log a metrics summary line at this interval (0 disables; needs -metrics-addr)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "apcm-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "apcm-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n     expected shape: %s\n", e.ID, e.Title, e.Expect)
		}
		return
	}

	var selected []bench.Experiment
	if strings.EqualFold(*exps, "all") {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Get(strings.ToUpper(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "apcm-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var reg *metrics.Registry
	if *metAddr != "" {
		reg = metrics.New()
		ms := &http.Server{Addr: *metAddr, Handler: metrics.NewMux(reg), ReadHeaderTimeout: 5 * time.Second}
		//apcm:detached process-lifetime server; ListenAndServe returns on the deferred ms.Close()
		go func() {
			fmt.Printf("apcm-bench: metrics on http://%s/metrics\n", *metAddr)
			if err := ms.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "apcm-bench: metrics http: %v\n", err)
				os.Exit(1)
			}
		}()
		defer ms.Close()
		stop := reg.StartLogger(*metLog, func(format string, args ...any) {
			fmt.Printf("apcm-bench: "+format+"\n", args...)
		})
		defer stop()
	}

	var shardCounts []int
	if *shards != "" {
		for _, s := range strings.Split(*shards, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "apcm-bench: bad -shards entry %q\n", s)
				os.Exit(2)
			}
			shardCounts = append(shardCounts, n)
		}
	}

	cfg := bench.Config{
		Out:        os.Stdout,
		Scale:      *scale,
		Workers:    *workers,
		Seed:       *seed,
		MinMeasure: *measure,
		CSV:        *csv,
		Shards:     shardCounts,
		Metrics:    reg,
	}
	fmt.Printf("apcm-bench: %d experiment(s), scale=%.2f workers=%d GOMAXPROCS=%d\n\n",
		len(selected), *scale, *workers, runtime.GOMAXPROCS(0))
	var before runtime.MemStats
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s: %s\n   paper shape: %s\n", e.ID, e.Title, e.Expect)
		if *allocs {
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "apcm-bench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("   (%s elapsed)\n", time.Since(start).Round(time.Millisecond))
		if *allocs {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			fmt.Printf("   allocs: %d objects, %s heap-allocated\n",
				after.Mallocs-before.Mallocs, formatBytes(after.TotalAlloc-before.TotalAlloc))
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "apcm-bench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // settle retained heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "apcm-bench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("apcm-bench: heap profile written to %s\n", *memProf)
	}
}

func formatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

package main

import (
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	e, ok := parseLine("BenchmarkExperiments/E10/batch=64-2   \t     200\t    320505 ns/op\t    199685 events/s\t     680 B/op\t       6 allocs/op")
	want := entry{Name: "BenchmarkExperiments/E10/batch=64-2", GOMAXPROCS: 2, Iterations: 200,
		NsPerOp: 320505, EventsPerS: 199685, BytesPerOp: 680, AllocsPerOp: 6}
	if !ok || !reflect.DeepEqual(e, want) {
		t.Fatalf("parsed %+v (ok=%v), want %+v", e, ok, want)
	}

	// No -N suffix means GOMAXPROCS=1; unknown units land in Extra.
	e, ok = parseLine("BenchmarkExperiments/E19/subs=2000/shards=1/latency \t 1\t 22695 ns/op\t 22797 p50-ns\t 23100 p99-ns")
	want = entry{Name: "BenchmarkExperiments/E19/subs=2000/shards=1/latency", GOMAXPROCS: 1, Iterations: 1,
		NsPerOp: 22695, Extra: map[string]float64{"p50-ns": 22797, "p99-ns": 23100}}
	if !ok || !reflect.DeepEqual(e, want) {
		t.Fatalf("parsed %+v (ok=%v), want %+v", e, ok, want)
	}

	for _, line := range []string{
		"goos: linux",
		"BenchmarkExperiments/E1",
		"BenchmarkX-2 \t notanumber \t 1 ns/op",
		"PASS",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("%q parsed as a result line", line)
		}
	}
}

// abRun is go test output for the E18 layout A/B at -count 2: the two
// variants of one point, interleaved, plus a point -match leaves out.
const abRun = `goos: linux
goarch: amd64
pkg: github.com/streammatch/apcm
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkExperiments/E18/canonical/full-2     	     200	    300000 ns/op	    213333 events/s
BenchmarkExperiments/E18/canonical/all-off-2  	     200	    400000 ns/op	    160000 events/s
BenchmarkExperiments/E18/canonical/full-2     	     200	    340000 ns/op	    188235 events/s
BenchmarkExperiments/E18/canonical/all-off-2  	     200	    440000 ns/op	    145454 events/s
BenchmarkMetricsOverhead/disabled-2           	     200	     28282 ns/op
PASS
`

func TestParseHeaderAndPairAB(t *testing.T) {
	d, err := parse(strings.NewReader(abRun), regexp.MustCompile("Experiments/"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if d.GOOS != "linux" || d.GOARCH != "amd64" || d.Pkg != "github.com/streammatch/apcm" ||
		d.CPU != "Intel(R) Xeon(R) Processor @ 2.70GHz" {
		t.Fatalf("header = %q %q %q %q", d.GOOS, d.GOARCH, d.Pkg, d.CPU)
	}
	if len(d.Benchmarks) != 4 {
		t.Fatalf("kept %d entries, want the 4 matching -match", len(d.Benchmarks))
	}
	for _, e := range d.Benchmarks {
		if e.GOMAXPROCS != 2 {
			t.Fatalf("%s: GOMAXPROCS %d, want 2", e.Name, e.GOMAXPROCS)
		}
	}

	ab := pairAB(d.Benchmarks, "full", "all-off")
	if len(ab) != 1 {
		t.Fatalf("got %d pairs, want 1: %+v", len(ab), ab)
	}
	got := ab[0]
	if got.Benchmark != "BenchmarkExperiments/E18/canonical*-2" ||
		got.New != "BenchmarkExperiments/E18/canonical/full-2" ||
		got.Old != "BenchmarkExperiments/E18/canonical/all-off-2" {
		t.Fatalf("paired %q: %q vs %q", got.Benchmark, got.New, got.Old)
	}
	if got.Samples != 2 || got.NewNs != 320000 || got.OldNs != 420000 || got.Speedup != 420000.0/320000.0 {
		t.Fatalf("pair = %+v, want 2 samples per side, 320000 vs 420000 ns/op", got)
	}
}

// Command apcm-benchjson converts `go test -bench` output on stdin into
// a machine-readable JSON summary, so CI can archive benchmark numbers
// (throughput and allocation rates) as a build artifact and diff them
// across commits.
//
// Usage:
//
//	go test -run '^$' -bench 'Experiments/E10$' -benchmem . | \
//	    go run ./cmd/apcm-benchjson -out BENCH.json
//
// Each selected benchmark line becomes one entry with every reported
// metric: ns/op, the custom events/s metric, and (with -benchmem)
// B/op and allocs/op, plus the GOMAXPROCS it ran with (the "-N" name
// suffix go test adds when N is not 1). The document records the
// machine from go test's goos/goarch/cpu header lines. Lines that are
// not benchmark results pass through untouched to stderr so the
// human-readable log survives the pipe.
//
// With -ab "new=old", benchmark names that differ only in the /new vs
// /old sub-benchmark segment are paired up (averaging repeated -count
// runs per side) and an "ab" section records the speedup of new over
// old, so interleaved A/B runs reduce to one ratio per benchmark:
//
//	go test -run '^$' -bench 'Experiments/E18$' -count 6 . | \
//	    go run ./cmd/apcm-benchjson -ab full=all-off -out BENCH_pr3.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// entry is one benchmark result line.
type entry struct {
	Name        string  `json:"name"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	EventsPerS  float64 `json:"events_per_sec,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds any custom metrics beyond the known units.
	Extra map[string]float64 `json:"extra,omitempty"`
}

func main() {
	var (
		out   = flag.String("out", "", "output file (default stdout)")
		match = flag.String("match", ".", "regexp selecting benchmark names to include")
		ab    = flag.String("ab", "", "variant pair \"new=old\": pair /new vs /old sub-benchmarks and report speedups")
	)
	flag.Parse()
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apcm-benchjson: bad -match: %v\n", err)
		os.Exit(2)
	}

	d, err := parse(os.Stdin, re, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apcm-benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if *ab != "" {
		newV, oldV, ok := strings.Cut(*ab, "=")
		if !ok || newV == "" || oldV == "" {
			fmt.Fprintf(os.Stderr, "apcm-benchjson: bad -ab %q (want new=old)\n", *ab)
			os.Exit(2)
		}
		d.AB = pairAB(d.Benchmarks, newV, oldV)
	}
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "apcm-benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "apcm-benchjson: %v\n", err)
		os.Exit(1)
	}
}

// doc is the JSON document: the machine, then one entry per result.
type doc struct {
	GOOS       string     `json:"goos,omitempty"`
	GOARCH     string     `json:"goarch,omitempty"`
	CPU        string     `json:"cpu,omitempty"`
	Pkg        string     `json:"pkg,omitempty"`
	Benchmarks []entry    `json:"benchmarks"`
	AB         []abResult `json:"ab,omitempty"`
}

// parse reads go test -bench output, keeping the header fields and the
// result lines whose name re matches, and copies every line to echo.
func parse(r io.Reader, re *regexp.Regexp, echo io.Writer) (doc, error) {
	var d doc
	header := map[string]*string{"goos: ": &d.GOOS, "goarch: ": &d.GOARCH, "cpu: ": &d.CPU, "pkg: ": &d.Pkg}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for prefix, field := range header {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				*field = v
			}
		}
		if e, ok := parseLine(line); ok && re.MatchString(e.Name) {
			d.Benchmarks = append(d.Benchmarks, e)
		}
		fmt.Fprintln(echo, line)
	}
	return d, sc.Err()
}

// abResult is one paired A/B comparison: the "new" variant of a
// benchmark against its "old" counterpart, averaged over repeated
// -count runs.
type abResult struct {
	Benchmark string `json:"benchmark"`
	New       string `json:"new"`
	Old       string `json:"old"`
	// Samples is the number of interleaved runs averaged per side
	// (min of the two sides).
	Samples int     `json:"samples"`
	NewNs   float64 `json:"new_ns_per_op,omitempty"`
	OldNs   float64 `json:"old_ns_per_op,omitempty"`
	NewEvS  float64 `json:"new_events_per_sec,omitempty"`
	OldEvS  float64 `json:"old_events_per_sec,omitempty"`
	// Speedup is old/new in ns/op terms (>1 means new is faster).
	Speedup float64 `json:"speedup"`
}

// pairAB matches every benchmark whose name contains the /newV segment
// with the same name containing /oldV instead, averages repeated runs
// on each side, and returns one speedup per pair.
func pairAB(entries []entry, newV, oldV string) []abResult {
	type agg struct {
		ns, evs float64
		n       int
	}
	sum := map[string]*agg{}
	var order []string
	for _, e := range entries {
		a := sum[e.Name]
		if a == nil {
			a = &agg{}
			sum[e.Name] = a
			order = append(order, e.Name)
		}
		a.ns += e.NsPerOp
		a.evs += e.EventsPerS
		a.n++
	}
	seg := func(name, v string) (string, bool) {
		// Variant appears as a full sub-benchmark path segment, possibly
		// followed by the -GOMAXPROCS suffix: ".../pr3-8" or ".../pr3/...".
		for _, pat := range []string{"/" + v + "-", "/" + v + "/"} {
			if i := strings.Index(name, pat); i >= 0 {
				return name[:i] + "\x00" + name[i+len(pat)-1:], true
			}
		}
		if strings.HasSuffix(name, "/"+v) {
			return strings.TrimSuffix(name, v) + "\x00", true
		}
		return "", false
	}
	var out []abResult
	for _, name := range order {
		key, ok := seg(name, newV)
		if !ok {
			continue
		}
		var oldName string
		for _, cand := range order {
			if ck, ok := seg(cand, oldV); ok && ck == key {
				oldName = cand
				break
			}
		}
		if oldName == "" {
			continue
		}
		na, oa := sum[name], sum[oldName]
		r := abResult{
			Benchmark: strings.ReplaceAll(key, "\x00", "*"),
			New:       name, Old: oldName,
			Samples: min(na.n, oa.n),
			NewNs:   na.ns / float64(na.n),
			OldNs:   oa.ns / float64(oa.n),
			NewEvS:  na.evs / float64(na.n),
			OldEvS:  oa.evs / float64(oa.n),
		}
		if r.NewNs > 0 {
			r.Speedup = r.OldNs / r.NewNs
		}
		out = append(out, r)
	}
	return out
}

// parseLine decodes one `Benchmark.../sub-1  N  123 ns/op  456 unit ...`
// result line; ok is false for anything else.
func parseLine(line string) (entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return entry{}, false
	}
	e := entry{Name: fields[0], GOMAXPROCS: 1, Iterations: iters}
	if i := strings.LastIndexByte(e.Name, '-'); i >= 0 {
		if n, err := strconv.Atoi(e.Name[i+1:]); err == nil && n > 0 {
			e.GOMAXPROCS = n
		}
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return entry{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "events/s":
			e.EventsPerS = v
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		default:
			if e.Extra == nil {
				e.Extra = make(map[string]float64)
			}
			e.Extra[unit] = v
		}
	}
	return e, true
}

package main

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// t0 is the benchmark's clock origin; every timestamp is nanoseconds
// since it on the monotonic clock. Set once in main before any
// goroutine starts.
var t0 = time.Now()

func now() int64 { return int64(time.Since(t0)) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. It sorts xs in place. +Inf samples (missing
// deliveries) sort last, so they count as over any limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	if math.IsInf(xs[lo+1], 1) {
		return xs[lo+1]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// usOf converts nanosecond samples to microseconds.
func usOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// mix64 is the splitmix64 finaliser: a bijective scrambler used to
// hash (connection, subscription) keys into the per-event digests.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// gamma draws from Gamma(shape, 1) (Marsaglia–Tsang, with the
// shape<1 boost). Inter-arrival times with shape < 1 have a coefficient
// of variation above 1: bursts separated by lulls.
func gamma(r *rand.Rand, shape float64) float64 {
	if shape < 1 {
		return gamma(r, shape+1) * math.Pow(r.Float64(), 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// cpuSeconds is the process's user+system CPU time (getrusage).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rtSample is a runtime/metrics reading; deltas of two readings give
// per-phase allocation, GC CPU and scheduler-latency figures.
type rtSample struct {
	at     int64 // now() at the reading
	allocs uint64
	gcCPU  float64 // advances when a GC cycle ends
	sched  *metrics.Float64Histogram
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	r := rtSample{at: now()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		r.sched = &metrics.Float64Histogram{Counts: slices.Clone(h.Counts), Buckets: h.Buckets}
	}
	return r
}

// gcCPUFrac is the share of the available CPU time (GOMAXPROCS × wall
// time) the GC used between two readings.
func gcCPUFrac(a, b rtSample) float64 {
	return (b.gcCPU - a.gcCPU) / (float64(b.at-a.at) / 1e9 * float64(runtime.GOMAXPROCS(0)))
}

// schedWaitP99 is the 99th percentile of goroutine scheduling latency
// between two readings, in µs, interpolated within its bucket.
func schedWaitP99(a, b rtSample) float64 {
	if a.sched == nil || b.sched == nil {
		return math.NaN()
	}
	var total uint64
	d := make([]uint64, len(b.sched.Counts))
	for i := range d {
		d[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += d[i]
	}
	rank := 0.99 * float64(total)
	var seen float64
	for i, c := range d {
		if c == 0 || seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		lo, hi := b.sched.Buckets[i], b.sched.Buckets[i+1]
		if math.IsInf(hi, 1) {
			return lo * 1e6
		}
		return (lo + (rank-seen)/float64(c)*(hi-lo)) * 1e6
	}
	return math.NaN()
}

// hostTicks reads the machine-wide CPU time counters: total and stolen
// (time the hypervisor ran someone else). The steal share of a run is
// recorded with it, so a run slowed by its neighbours can be told apart.
func hostTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

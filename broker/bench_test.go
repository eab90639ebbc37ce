package broker

import (
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/commitlog"
)

// E21 — fsync latency: the group-commit tuning surface. A durable
// consumer's delivery latency is bounded below by the commit path
// (stage → flush → fsync → deliver), and the two flush knobs trade
// throughput against that latency: FlushInterval caps how long a
// staged record waits for co-committers, FlushBytes caps how much
// batching a burst can accumulate before the flush is forced. The
// sweep publishes with a bounded number of in-flight events and
// reports per-event durable-delivery latency percentiles plus
// sustained throughput; the NoFsync row isolates what the fsync
// itself costs versus the group-commit machinery around it.
func BenchmarkE21FsyncLatency(b *testing.B) {
	grid := []struct {
		name     string
		interval time.Duration
		bytes    int
		nofsync  bool
	}{
		{"fi=100us/fb=4KiB", 100 * time.Microsecond, 4 << 10, false},
		{"fi=100us/fb=64KiB", 100 * time.Microsecond, 64 << 10, false},
		{"fi=1ms/fb=4KiB", time.Millisecond, 4 << 10, false},
		{"fi=1ms/fb=64KiB", time.Millisecond, 64 << 10, false},
		{"fi=5ms/fb=64KiB", 5 * time.Millisecond, 64 << 10, false},
		{"fi=100us/nofsync", 100 * time.Microsecond, 64 << 10, true},
	}
	for _, g := range grid {
		b.Run(g.name, func(b *testing.B) {
			benchDurableLatency(b, commitlog.Config{
				SegmentBytes:  8 << 20,
				FlushInterval: g.interval,
				FlushBytes:    g.bytes,
				NoFsync:       g.nofsync,
			})
		})
	}
}

// benchDurableLatency measures publish→durable-delivery latency through
// a real broker over TCP with at most 32 events in flight, the shape of
// a pipelined durable producer. Run with a fixed -benchtime (e.g.
// 2000x) so every config sees the same sample count in one incarnation.
func benchDurableLatency(b *testing.B, lc commitlog.Config) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	s := NewServer(eng)
	s.LogDir = b.TempDir()
	s.Log = lc
	go func() { _ = s.Serve(ln) }()
	defer s.Close()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}

	const inflight = 32
	sem := make(chan struct{}, inflight)
	var mu sync.Mutex
	sendAt := make([]time.Time, 0, b.N)
	lat := make([]time.Duration, 0, b.N)
	done := make(chan struct{})
	recvd := 0
	c := NewClientOpts(nc, ClientOptions{OnDurable: func(off uint64, ev *expr.Event) {
		now := time.Now()
		mu.Lock()
		// Single publisher, FIFO log, one consumer: delivery order is
		// publish order, so the nth delivery matches the nth send stamp.
		if recvd < len(sendAt) {
			lat = append(lat, now.Sub(sendAt[recvd]))
		}
		recvd++
		n := recvd
		mu.Unlock()
		<-sem
		if n == b.N {
			close(done)
		}
	}})
	defer c.Close()
	if err := c.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Resume("bench", 0); err != nil {
		b.Fatal(err)
	}

	ev := crashEvent(7)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sem <- struct{}{}
		mu.Lock()
		sendAt = append(sendAt, time.Now())
		mu.Unlock()
		if err := c.Publish(ev); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	elapsed := time.Since(start)
	b.StopTimer()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	// Nanoseconds, under the latency unit names internal/bench reports.
	pctl := func(q float64) float64 {
		return float64(lat[int(q*float64(len(lat)-1))])
	}
	b.ReportMetric(pctl(0.50), "p50-ns")
	b.ReportMetric(pctl(0.99), "p99-ns")
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "events/s")
	b.ReportMetric(0, "ns/op") // wall time is the pipeline's, not per-op
}

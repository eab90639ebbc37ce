package broker

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/metrics"
)

// metricValue reads one counter/gauge from a registry snapshot.
func metricValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, v := range reg.Snapshot() {
		if v.Name == name {
			return v.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

// TestSlowConsumerDropped stalls one subscriber completely (it
// subscribes, then never reads) while a healthy subscriber and a
// publisher keep working. The stalled connection must be dropped after
// SlowConsumerTimeout without wedging the publisher or starving the
// healthy subscriber, and the drop must be visible in both the
// SlowConsumerDrops accessor and the metrics registry.
func TestSlowConsumerDropped(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	s := NewServer(eng)
	s.Logf = t.Logf
	s.SlowConsumerTimeout = 150 * time.Millisecond
	s.Metrics = reg
	go func() { s.Serve(ln) }()
	defer s.Close()
	addr := ln.Addr().String()

	// The stalled subscriber: a raw TCP connection that subscribes to
	// everything and then stops reading. Tiny receive buffer so the
	// kernel absorbs as few match frames as possible.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	stalled.(*net.TCPConn).SetReadBuffer(4096)
	rawHello(t, stalled)
	sub := expr.MustNew(1, expr.Ge(1, 0))
	if err := writeFrame(stalled, append([]byte{msgSubscribe}, expr.AppendExpression(nil, sub)...)); err != nil {
		t.Fatal(err)
	}
	// Consume the subscribe ack, then never read again.
	if _, err := readFrame(stalled, nil); err != nil {
		t.Fatal(err)
	}
	// Shrink the server side's send buffer too, so its write loop stalls
	// after a handful of frames instead of megabytes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sc *conn
		s.mu.RLock()
		for c := range s.conns {
			if c.nc.RemoteAddr().String() == stalled.LocalAddr().String() {
				sc = c
			}
		}
		s.mu.RUnlock()
		if sc != nil {
			sc.nc.(*net.TCPConn).SetWriteBuffer(4096)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled conn never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// The healthy subscriber keeps reading the whole time.
	var healthyGot atomic.Int64
	healthy, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if err := healthy.Subscribe(expr.MustNew(1, expr.Ge(1, 0)), func(*expr.Event) {
		healthyGot.Add(1)
	}); err != nil {
		t.Fatal(err)
	}

	// Publish enough padded events to overflow the stalled consumer's
	// outbox (256 frames) plus both socket buffers.
	pub, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pairs := make([]expr.Pair, 0, 64)
	for a := expr.AttrID(1); a <= 64; a++ {
		pairs = append(pairs, expr.P(a, expr.Value(a)))
	}
	ev := expr.MustEvent(pairs...)
	const total = 3000
	pubDone := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := pub.Publish(ev); err != nil {
				pubDone <- err
				return
			}
		}
		pubDone <- nil
	}()

	select {
	case err := <-pubDone:
		if err != nil {
			t.Fatalf("publisher failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("publisher wedged behind slow consumer")
	}

	// The stalled connection must have been dropped...
	deadline = time.Now().Add(10 * time.Second)
	for s.SlowConsumerDrops() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.SlowConsumerDrops(); got < 1 {
		t.Fatalf("SlowConsumerDrops = %d, want >= 1", got)
	}
	if got := metricValue(t, reg, "apcm_broker_slow_consumer_drops_total"); got < 1 {
		t.Fatalf("apcm_broker_slow_consumer_drops_total = %g, want >= 1", got)
	}
	// ...its reader observes the close...
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	drain := make([]byte, 1<<16)
	for {
		if _, err := stalled.Read(drain); err != nil {
			break
		}
	}
	// ...and the healthy subscriber received every event.
	deadline = time.Now().Add(30 * time.Second)
	for healthyGot.Load() < total && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := healthyGot.Load(); got != total {
		t.Fatalf("healthy subscriber got %d of %d events", got, total)
	}
}

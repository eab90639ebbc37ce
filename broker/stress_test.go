package broker

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streammatch/apcm/expr"
)

// TestStressManyPublishersAndSubscribers drives the broker with
// concurrent publishers and subscribers and verifies exact delivery
// counts end to end: every subscriber holds a deterministic profile, so
// the expected delivery total is computable from the published events.
func TestStressManyPublishersAndSubscribers(t *testing.T) {
	_, addr := startServer(t)

	const (
		nSubscribers  = 6
		nPublishers   = 4
		perPublisher  = 300
		topicModulo   = 3 // events carry topic = i % 3
		matchingTopic = 1
	)

	// Subscribers 0,2,4 want topic 1; subscribers 1,3,5 want everything.
	type subscriber struct {
		client   *Client
		all      bool
		received atomic.Int64
	}
	subs := make([]*subscriber, nSubscribers)
	for i := range subs {
		c, err := dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s := &subscriber{client: c, all: i%2 == 1}
		subs[i] = s
		var x *expr.Expression
		if s.all {
			x = expr.MustNew(1, expr.Ge(1, 0))
		} else {
			x = expr.MustNew(1, expr.Eq(1, matchingTopic))
		}
		if err := c.Subscribe(x, func(*expr.Event) { s.received.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < nPublishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < perPublisher; i++ {
				ev := expr.MustEvent(expr.P(1, expr.Value(i%topicModulo)), expr.P(2, expr.Value(p)))
				if err := c.Publish(ev); err != nil {
					t.Error(err)
					return
				}
			}
			// Barrier: an acked request proves all prior publishes on this
			// connection were processed.
			if err := c.Unsubscribe(777); err == nil {
				t.Error("barrier unsubscribe unexpectedly succeeded")
			}
		}(p)
	}
	wg.Wait()

	total := nPublishers * perPublisher
	topicCount := total / topicModulo // events with topic == matchingTopic
	wantPerTopicSub := int64(topicCount)
	wantPerAllSub := int64(total)

	// Delivery is asynchronous past the server's match; allow it to drain.
	deadline := time.Now().Add(5 * time.Second)
	done := func() bool {
		for _, s := range subs {
			want := wantPerTopicSub
			if s.all {
				want = wantPerAllSub
			}
			if s.received.Load() != want {
				return false
			}
		}
		return true
	}
	for !done() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	for i, s := range subs {
		want := wantPerTopicSub
		if s.all {
			want = wantPerAllSub
		}
		if got := s.received.Load(); got != want {
			t.Errorf("subscriber %d received %d, want %d", i, got, want)
		}
	}
}

// TestStressChurningSubscriptions interleaves subscribe/unsubscribe with
// publishing from another connection; the broker must stay consistent
// and never deadlock.
func TestStressChurningSubscriptions(t *testing.T) {
	s, addr := startServer(t)
	churner, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer churner.Close()
	pub, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	stop := make(chan struct{})
	var pubWg sync.WaitGroup
	pubWg.Add(1)
	go func() {
		defer pubWg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			pub.Publish(expr.MustEvent(expr.P(1, expr.Value(i%10))))
			i++
		}
	}()

	for round := 0; round < 100; round++ {
		id := expr.ID(round%5 + 1)
		x := expr.MustNew(id, expr.Eq(1, expr.Value(round%10)))
		if err := churner.Subscribe(x, func(*expr.Event) {}); err != nil {
			t.Fatalf("round %d: subscribe: %v", round, err)
		}
		if err := churner.Unsubscribe(id); err != nil {
			t.Fatalf("round %d: unsubscribe: %v", round, err)
		}
	}
	close(stop)
	pubWg.Wait()
	if s.eng.Len() != 0 {
		t.Fatalf("engine holds %d subscriptions after churn", s.eng.Len())
	}
}

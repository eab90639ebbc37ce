// Selective information dissemination over the network broker — the
// paper's canonical pub/sub application, end to end.
//
// A broker fronts the matching engine on loopback TCP. Subscriber
// clients register interest profiles (news topics, regions, urgency
// thresholds); a publisher pushes a stream of news items; the broker
// matches each item against every profile and delivers it only to the
// interested subscribers.
//
//	go run ./examples/dissemination
package main

import (
	"fmt"
	"log"
	"net"
	"sync/atomic"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/broker"
	"github.com/streammatch/apcm/expr"
)

// News item attributes.
const (
	attrTopic   = iota // 0..49 (politics, sports, markets, ...)
	attrRegion         // 0..29
	attrUrgency        // 0..9
	attrSource         // 0..99
)

func main() {
	eng, err := apcm.New(apcm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := broker.NewServer(eng)
	srv.Logf = func(string, ...any) {}
	go srv.Serve(ln) //apcm:detached Serve returns on the deferred srv.Close()
	defer srv.Close()
	addr := ln.Addr().String()
	fmt.Printf("broker listening on %s\n\n", addr)

	// Three subscribers with different interest profiles.
	profiles := []struct {
		who  string
		expr string
		prof *expr.Expression
	}{
		{who: "markets desk", prof: expr.MustNew(1,
			expr.Eq(attrTopic, 7),     // markets
			expr.Ge(attrUrgency, 5))}, // important only
		{who: "eu sports fan", prof: expr.MustNew(1,
			expr.Eq(attrTopic, 3), // sports
			expr.Any(attrRegion, 10, 11, 12))},
		{who: "crisis monitor", prof: expr.MustNew(1,
			expr.Ge(attrUrgency, 8),
			expr.None(attrSource, 66))}, // distrusts source 66
	}
	type subscriber struct {
		who      string
		received atomic.Int64
	}
	subs := make([]*subscriber, len(profiles))
	for i, p := range profiles {
		c, err := broker.DialSession([]string{addr}, broker.SessionConfig{})
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		s := &subscriber{who: p.who}
		subs[i] = s
		if err := c.Subscribe(p.prof, func(ev *expr.Event) {
			s.received.Add(1)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("subscriber %-14s registered: %s\n", p.who, p.prof)
	}

	// The publisher pushes a burst of news items.
	pub, err := broker.DialSession([]string{addr}, broker.SessionConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer pub.Close()

	items := []struct {
		desc  string
		event *expr.Event
	}{
		{"urgent market crash", expr.MustEvent(
			expr.P(attrTopic, 7), expr.P(attrRegion, 10), expr.P(attrUrgency, 9), expr.P(attrSource, 12))},
		{"minor market note", expr.MustEvent(
			expr.P(attrTopic, 7), expr.P(attrRegion, 2), expr.P(attrUrgency, 2), expr.P(attrSource, 12))},
		{"eu football final", expr.MustEvent(
			expr.P(attrTopic, 3), expr.P(attrRegion, 11), expr.P(attrUrgency, 4), expr.P(attrSource, 30))},
		{"us baseball recap", expr.MustEvent(
			expr.P(attrTopic, 3), expr.P(attrRegion, 1), expr.P(attrUrgency, 3), expr.P(attrSource, 30))},
		{"urgent rumour from source 66", expr.MustEvent(
			expr.P(attrTopic, 1), expr.P(attrRegion, 5), expr.P(attrUrgency, 9), expr.P(attrSource, 66))},
	}
	fmt.Println()
	for _, item := range items {
		if err := pub.Publish(item.event); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("published: %s\n", item.desc)
	}

	// Wait for deliveries to drain (publish is fire-and-forget). The
	// expected count: the crash reaches two profiles, the final one, and
	// nothing else gets through.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, delivered := srv.Stats(); delivered >= 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	fmt.Println()
	for _, s := range subs {
		fmt.Printf("subscriber %-14s received %d item(s)\n", s.who, s.received.Load())
	}
	published, delivered := srv.Stats()
	fmt.Printf("\nbroker: %d published, %d delivered (selective: %.0f%% of the firehose filtered out)\n",
		published, delivered, 100*(1-float64(delivered)/float64(int64(len(subs))*published)))
}

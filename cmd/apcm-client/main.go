// Command apcm-client talks to an apcm-broker: subscribe with a textual
// Boolean expression and stream matching events, publish single events,
// or replay an event trace as a load driver.
//
// Attribute names map to ids by declaration order, so every client that
// should interoperate must pass the same -attrs list:
//
//	apcm-client -addr :7070 -attrs price,brand,rating sub 'price <= 500 and brand in {3, 7}'
//	apcm-client -addr :7070 -attrs price,brand,rating pub 'price=300, brand=7, rating=5'
//	apcm-client -addr :7070 load workload.events
//
// Against a broker running with -log-dir, -consumer makes a
// subscription durable: matches arrive from the commit log with their
// offsets, are acknowledged as they print, and a restarted client with
// the same consumer name resumes where the last one left off:
//
//	apcm-client -addr :7070 -attrs price,brand -consumer audit sub 'brand in {7}'
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/streammatch/apcm/broker"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/trace"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7070", "broker address")
		attrs    = flag.String("attrs", "", "comma-separated attribute names, declared in id order")
		consumer = flag.String("consumer", "", "durable consumer name: resume from the last acknowledged offset (sub only; broker needs -log-dir)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}

	schema := expr.NewSchema()
	if *attrs != "" {
		for _, name := range strings.Split(*attrs, ",") {
			schema.Attr(strings.TrimSpace(name))
		}
	}

	var opts broker.ClientOptions
	if *consumer != "" {
		opts.OnDurable = func(off uint64, ev *expr.Event) {
			fmt.Printf("match: @%d %s\n", off, ev.Format(schema))
		}
	}
	nc, err := net.Dial("tcp", *addr)
	if err != nil {
		fatal("%v", err)
	}
	c := broker.NewClientOpts(nc, opts)
	defer c.Close()

	switch args[0] {
	case "sub":
		if len(args) != 2 {
			usage()
		}
		x, err := expr.Parse(schema, 1, args[1])
		if err != nil {
			fatal("%v", err)
		}
		handler := func(ev *expr.Event) {
			fmt.Printf("match: %s\n", ev.Format(schema))
		}
		if *consumer != "" {
			// Durable matches print through OnDurable with their offset.
			handler = func(*expr.Event) {}
		}
		if err := c.Subscribe(x, handler); err != nil {
			fatal("subscribe: %v", err)
		}
		if *consumer != "" {
			start, err := c.Resume(*consumer, 0)
			if err != nil {
				fatal("resume: %v", err)
			}
			fmt.Printf("apcm-client: resumed consumer %q at offset %d\n", *consumer, start)
		}
		fmt.Printf("apcm-client: subscribed to %q; waiting for events (Ctrl-C to exit)\n", x.Format(schema))
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	case "pub":
		if len(args) != 2 {
			usage()
		}
		ev, err := expr.ParseEvent(schema, args[1])
		if err != nil {
			fatal("%v", err)
		}
		if err := c.Publish(ev); err != nil {
			fatal("publish: %v", err)
		}
		fmt.Println("apcm-client: published")
	case "load":
		if len(args) != 2 {
			usage()
		}
		f, err := os.Open(args[1])
		if err != nil {
			fatal("%v", err)
		}
		events, err := trace.ReadEvents(f)
		f.Close()
		if err != nil {
			fatal("reading %s: %v", args[1], err)
		}
		start := time.Now()
		for _, ev := range events {
			if err := c.Publish(ev); err != nil {
				fatal("publish: %v", err)
			}
		}
		el := time.Since(start)
		fmt.Printf("apcm-client: published %d events in %s (%.0f events/s submitted)\n",
			len(events), el.Round(time.Millisecond), float64(len(events))/el.Seconds())
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  apcm-client [-addr host:port] [-attrs a,b,c] [-consumer name] sub  '<expression>'
  apcm-client [-addr host:port] [-attrs a,b,c] pub  '<event>'
  apcm-client [-addr host:port]                load <trace.events>`)
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "apcm-client: "+format+"\n", args...)
	os.Exit(1)
}

package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/commitlog"
)

// Standalone replays of the workload's inputs through single layers,
// outside the broker: the codec, the engine and the commit log. They
// bound what the broker path can reach.

// soloEvents builds the published form of every base event.
func soloEvents(in *inputs) ([]*expr.Event, error) {
	evs := make([]*expr.Event, len(in.basePairs))
	var scratch []expr.Pair
	for i := range evs {
		// A sequence number that maps back to base event i is not needed:
		// any value exercises the same attribute.
		ps := append(append(scratch[:0], in.basePairs[i]...), expr.Pair{Attr: in.seqAttr, Val: expr.Value(i)})
		ev, err := expr.NewEvent(ps...)
		if err != nil {
			return nil, err
		}
		evs[i] = ev
	}
	return evs, nil
}

// timeLoop runs fn over rounds until at least dur has passed and
// returns nanoseconds per item.
func timeLoop(dur time.Duration, items int, fn func()) float64 {
	start := time.Now()
	rounds := 0
	for time.Since(start) < dur || rounds == 0 {
		fn()
		rounds++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*items)
}

// soloCodec is expr.AppendEvent / expr.DecodeEvent over the events, in
// ns per event.
func soloCodec(evs []*expr.Event, dur time.Duration) (enc, dec float64, err error) {
	var buf []byte
	enc = timeLoop(dur, len(evs), func() {
		for _, ev := range evs {
			buf = expr.AppendEvent(buf[:0], ev)
		}
	})
	encoded := make([][]byte, len(evs))
	for i, ev := range evs {
		encoded[i] = expr.AppendEvent(nil, ev)
	}
	dec = timeLoop(dur, len(evs), func() {
		for _, b := range encoded {
			if _, _, e := expr.DecodeEvent(b); e != nil {
				err = e
			}
		}
	})
	return enc, dec, err
}

// soloMatch is a Workers=1 engine with the same subscriptions: Match
// one event at a time and MatchBatchInto 64 at a time, in µs per
// event. The per-event match counts are checked against the oracle.
func soloMatch(in *inputs, evs []*expr.Event, dur time.Duration) (single, batch float64, err error) {
	eng, err := apcm.New(apcm.Options{Workers: 1})
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	all := append(append([]*expr.Expression(nil), in.subs...), in.probes...)
	xs := make([]*expr.Expression, len(all))
	for i, x := range all {
		xs[i] = &expr.Expression{ID: expr.ID(i + 1), Preds: x.Preds}
	}
	if _, err := eng.SubscribeBulk(xs); err != nil {
		return 0, 0, err
	}
	for i, ev := range evs {
		if got := len(eng.Match(ev)); got != int(in.want[i]) {
			return 0, 0, fmt.Errorf("standalone A-PCM matched %d subscriptions for base event %d, oracle %d", got, i, in.want[i])
		}
	}
	var dst []expr.ID
	single = timeLoop(dur, len(evs), func() {
		for _, ev := range evs {
			dst = eng.MatchAppend(dst[:0], ev)
		}
	}) / 1e3
	var r apcm.BatchResult
	const width = 64
	n := len(evs) / width * width
	batch = timeLoop(dur, n, func() {
		for i := 0; i < n; i += width {
			eng.MatchBatchInto(evs[i:i+width], &r)
		}
	}) / 1e3
	return single, batch, nil
}

// durableRecord is the record the broker logs for one delivery of ev
// to a probe: consumer name, one client id, the event.
func durableRecord(ev *expr.Event) []byte {
	const name = "consumer-0"
	rec := binary.AppendUvarint(nil, uint64(len(name)))
	rec = append(rec, name...)
	rec = binary.AppendUvarint(rec, 1)
	rec = binary.AppendUvarint(rec, probeIDBase)
	return expr.AppendEvent(rec, ev)
}

// soloAppend is a fresh commit log with the broker's default
// configuration (fsync on) and two appenders writing records of the
// size the broker logs for this workload's events; it returns the
// median Append latency in µs.
func soloAppend(dir string, rec []byte, dur time.Duration) (float64, error) {
	l, err := commitlog.Open(filepath.Join(dir, "solo-log"), commitlog.Config{})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	var mu sync.Mutex
	var lat []int64
	var firstErr error
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []int64
			for time.Now().Before(deadline) {
				start := now()
				if _, err := l.Append(rec); err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				mine = append(mine, now()-start)
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return quantile(usOf(lat), 0.5), l.Close()
}

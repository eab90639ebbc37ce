package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/streammatch/apcm/broker"
	"github.com/streammatch/apcm/expr"
)

// recorder routes every delivery to the ledger of the running phase.
type recorder struct {
	seqAttr expr.AttrID
	cur     atomic.Pointer[ledger]
	strays  atomic.Int64 // deliveries for no published event of the phase
}

func (r *recorder) handler(c int, clientID uint64) broker.Handler {
	key := subKey(c, clientID)
	return func(ev *expr.Event) { r.delivery(c, key, ev) }
}

func (r *recorder) delivery(c int, key uint64, ev *expr.Event) {
	t := now()
	l := r.cur.Load()
	v, ok := ev.Lookup(r.seqAttr)
	if l == nil || !ok || !l.deliver(c, key, int64(v), t) {
		r.strays.Add(1)
	}
}

func (r *recorder) churnDelivery() {
	if l := r.cur.Load(); l != nil {
		l.countDelivery(now())
	}
}

// slot is the ledger entry of one published event.
type slot struct {
	due  atomic.Int64 // due (open loop) or publish (closed loop) time; 0 until published
	got  atomic.Int32 // static+probe deliveries received
	hash atomic.Uint64
	done atomic.Int64 // time the last expected delivery arrived
}

// delivery is one timed delivery of a traced ledger.
type delivery struct{ seq, t int64 }

// ledger holds one phase's publications and what came back for them.
// Sequence numbers first..first+len(slots) belong to the phase;
// connection c publishes indexes c, c+conns, c+2·conns, ...
type ledger struct {
	in    *inputs
	first int64
	slots []slot
	// Deliveries, completions and subscribe round trips count only
	// inside [from, to); latencies only for events due at or after from.
	from, to int64
	timed    bool // record per-delivery latency
	traced   bool
	lat      [conns][]int64 // per-delivery latency, written by connection c's read loop only
	dl       [conns][]delivery
	// latMu guards lat[c] and dl[c]: the atomics that end a drain do not
	// order a connection's append after another connection completed
	// the event, nor a delivery that arrives after the drain gave up.
	latMu     [conns]sync.Mutex
	sem       [conns]chan struct{} // closed-loop in-flight window
	completed atomic.Int64         // completions inside the window
	finished  atomic.Int64         // completions at any time
	delivered atomic.Int64         // deliveries inside the window, churn included
	published [conns]atomic.Int64
	pubErrs   atomic.Int64
	subErrs   atomic.Int64 // churn subscribe/unsubscribe failures
	subMu     sync.Mutex
	subLat    []int64 // churn Subscribe round trips
}

func newLedger(in *inputs, first int64, n int) *ledger {
	return &ledger{in: in, first: first, slots: make([]slot, n), to: 1 << 62}
}

func (l *ledger) countDelivery(t int64) {
	if t >= l.from && t < l.to {
		l.delivered.Add(1)
	}
}

func (l *ledger) deliver(c int, key uint64, seq, t int64) bool {
	i := seq - l.first
	if i < 0 || i >= int64(len(l.slots)) {
		return false
	}
	s := &l.slots[i]
	due := s.due.Load()
	if due == 0 {
		return false
	}
	n := s.got.Add(1)
	s.hash.Add(key)
	l.countDelivery(t)
	if l.timed && due >= l.from {
		l.latMu[c].Lock()
		l.lat[c] = append(l.lat[c], t-due)
		if l.traced {
			l.dl[c] = append(l.dl[c], delivery{seq, t})
		}
		l.latMu[c].Unlock()
	}
	if n == l.in.want[l.in.baseOf(seq)] {
		s.done.Store(t)
		l.finished.Add(1)
		if t >= l.from && t < l.to {
			l.completed.Add(1)
		}
		if sem := l.sem[i%conns]; sem != nil {
			<-sem
		}
	}
	return true
}

// timedDeliveries copies connection c's delivery latencies and, for a
// traced ledger, its timed deliveries.
func (l *ledger) timedDeliveries(c int) ([]int64, []delivery) {
	l.latMu[c].Lock()
	defer l.latMu[c].Unlock()
	return append([]int64(nil), l.lat[c]...), append([]delivery(nil), l.dl[c]...)
}

// outstanding is the number of published events not yet complete.
func (l *ledger) outstanding() int64 {
	var p int64
	for c := range l.published {
		p += l.published[c].Load()
	}
	return p - l.finished.Load() - l.pubErrs.Load()
}

// drain waits until every published event completed or the timeout.
func (l *ledger) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for l.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// tally compares what came back with the oracle.
type tally struct {
	events, expected                int64
	missing, unexpected, incomplete int64
	digestWant, digestGot           uint64
}

func (l *ledger) tally() tally {
	var t tally
	for i := range l.slots {
		s := &l.slots[i]
		if s.due.Load() == 0 {
			continue
		}
		seq := l.first + int64(i)
		b := l.in.baseOf(seq)
		want, got := int64(l.in.want[b]), int64(s.got.Load())
		t.events++
		t.expected += want
		h := s.hash.Load()
		t.digestWant += mix64(uint64(seq) ^ l.in.wantHash[b])
		t.digestGot += mix64(uint64(seq) ^ h)
		switch {
		case got < want:
			t.missing += want - got
		case got > want:
			t.unexpected += got - want
		case h != l.in.wantHash[b]:
			t.missing++
			t.unexpected++
		}
		if s.done.Load() == 0 {
			t.incomplete++
		}
	}
	return t
}

// missingMeasured counts the deliveries of measured events that never
// arrived; each enters the latency samples as +Inf, over any limit.
func (l *ledger) missingMeasured() int64 {
	var n int64
	for i := range l.slots {
		s := &l.slots[i]
		due := s.due.Load()
		if due == 0 || due < l.from {
			continue
		}
		if d := int64(l.in.want[l.in.baseOf(l.first+int64(i))]) - int64(s.got.Load()); d > 0 {
			n += d
		}
	}
	return n
}

// publisher publishes one connection's share of a phase.
type publisher struct {
	st      *stack
	l       *ledger
	c       int
	tr      *tracer
	scratch []expr.Pair
}

func (p *publisher) publish(idx int, due int64) {
	seq := p.l.first + int64(idx)
	start := now()
	if due == 0 {
		due = start
	}
	p.l.slots[idx].due.Store(due)
	p.l.published[p.c].Add(1)
	ev, err := p.st.in.event(&p.scratch, seq)
	if err == nil {
		err = p.st.clients[p.c].Publish(ev)
	}
	if err != nil {
		p.l.pubErrs.Add(1)
		if sem := p.l.sem[p.c]; sem != nil {
			<-sem
		}
		return
	}
	if p.tr != nil && p.tr.on.Load() {
		p.tr.published(seq, start, now())
	}
}

// closedLoop keeps window events in flight per connection for dur and
// returns the ledger; rates count from warm after the start. With a
// window of one, nothing queues inside the broker, and the ledger
// records each delivery's latency from its Publish call.
func (st *stack) closedLoop(first int64, dur, warm time.Duration, window int, tr *tracer) *ledger {
	// Room for 400k events/s, several times what this harness reaches,
	// within the phase's sequence-number range.
	l := newLedger(st.in, first, min(phaseSpan, max(1<<16, int(dur.Seconds()*400_000)))/conns*conns)
	l.timed = window == 1
	for c := range l.sem {
		l.sem[c] = make(chan struct{}, window)
	}
	start := now()
	l.from, l.to = start+int64(warm), start+int64(dur)
	st.rec.cur.Store(l)
	end := make(chan struct{})
	timer := time.AfterFunc(dur, func() { close(end) })
	defer timer.Stop()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &publisher{st: st, l: l, c: c, tr: tr}
			for idx := c; idx < len(l.slots); idx += conns {
				select {
				case l.sem[c] <- struct{}{}:
				case <-end:
					return
				}
				p.publish(idx, 0)
			}
		}(c)
	}
	churnStop := make(chan struct{})
	churn := st.startChurn(l, churnStop)
	wg.Wait()
	close(churnStop)
	churn.Wait()
	l.drain(5 * time.Second)
	return l
}

// openResult is an open-loop segment's ledger and the figures read
// over its measured part.
type openResult struct {
	l              *ledger
	late           []int64 // generator lateness of measured events
	measuredEvents int64
	cpuSec         float64
	rtFrom, rtTo   rtSample
	durableBefore  map[string]float64
	durableAfter   map[string]float64
	lagSamples     []float64
}

// openLoop publishes on the seeded bursty schedule for dur; latency
// and CPU count for events due from warm on.
func (st *stack) openLoop(first int64, seed int64, dur, warm time.Duration, tr *tracer) *openResult {
	var sched [conns][]int64
	n := 0
	for c := range sched {
		sched[c] = arrivals(seed, c, st.sp.rate, int64(dur))
		if len(sched[c]) > n {
			n = len(sched[c])
		}
	}
	l := newLedger(st.in, first, n*conns)
	l.timed = true
	l.traced = tr != nil
	res := &openResult{l: l}
	var measured int64
	for c := range sched {
		for _, t := range sched[c] {
			if t >= int64(warm) {
				measured++
			}
		}
	}
	res.measuredEvents = measured
	start := now() + int64(5*time.Millisecond)
	l.from = start + int64(warm)
	st.rec.cur.Store(l)
	if tr != nil {
		tr.beginPhase(first, n*conns)
	}

	var lates [conns][]int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &publisher{st: st, l: l, c: c, tr: tr}
			for k, rel := range sched[c] {
				due := start + rel
				sleepUntil(due)
				if due >= l.from {
					lates[c] = append(lates[c], now()-due)
				}
				p.publish(k*conns+c, due)
			}
		}(c)
	}
	churnStop := make(chan struct{})
	churn := st.startChurn(l, churnStop)
	// Measurement-window bookkeeping: CPU and runtime counters are read
	// when the warm-up ends and when the schedule ends.
	sampStop := make(chan struct{})
	sampDone := make(chan struct{})
	go func() {
		defer close(sampDone)
		time.Sleep(time.Duration(l.from - now()))
		res.rtFrom = readRuntime()
		cpu0 := cpuSeconds()
		if st.sp.durable {
			res.durableBefore = durableCounters(st)
		}
		if st.sp.repl && tr != nil {
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
		sample:
			for {
				select {
				case <-tick.C:
					res.lagSamples = append(res.lagSamples, snapshot(st.reg)["apcm_broker_repl_lag"].Value)
				case <-sampStop:
					break sample
				}
			}
		} else {
			<-sampStop
		}
		res.cpuSec = cpuSeconds() - cpu0
		res.rtTo = readRuntime()
		if st.sp.durable {
			res.durableAfter = durableCounters(st)
		}
	}()
	wg.Wait()
	close(sampStop)
	<-sampDone
	close(churnStop)
	churn.Wait()
	l.drain(5 * time.Second)
	for c := range lates {
		res.late = append(res.late, lates[c]...)
	}
	return res
}

// sleepUntil blocks the calling goroutine's thread until the clock
// reaches t. A nanosleep system call wakes within tens of µs; a Go
// timer can wake up to a millisecond late when every P is idle, which
// would add the generator's own lateness to every latency.
func sleepUntil(t int64) {
	for d := t - now(); d > 0; d = t - now() {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// durableCounters reads the commit-log and replication counters whose
// deltas give the per-event log figures.
func durableCounters(st *stack) map[string]float64 {
	snap := snapshot(st.reg)
	out := make(map[string]float64)
	for _, name := range []string{
		"apcm_broker_log_appends_total", "apcm_broker_log_flushes_total",
		"apcm_broker_log_flushed_bytes_total", "apcm_broker_repl_sync_waits_total",
	} {
		out[name] = snap[name].Value
	}
	return out
}

// startChurn runs each connection's subscribe/unsubscribe churn at the
// workload's rate until stop, recording subscribe round trips in l.
func (st *stack) startChurn(l *ledger, stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	if st.sp.churn <= 0 {
		return &wg
	}
	gap := time.Duration(1e9 / st.sp.churn)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := st.clients[c]
			tick := time.NewTicker(gap)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				id := churnIDBase + st.churnNext[c]
				x := st.in.churn[int(st.churnNext[c])%len(st.in.churn)]
				st.churnNext[c]++
				t0 := now()
				err := cl.Subscribe(&expr.Expression{ID: expr.ID(id), Preds: x.Preds}, st.churnHandler)
				t1 := now()
				if err != nil {
					st.logs.logf("churn subscribe on connection %d: %v", c, err)
					l.subErrs.Add(1)
					continue
				}
				if t0 >= l.from && t0 < l.to {
					l.subMu.Lock()
					l.subLat = append(l.subLat, t1-t0)
					l.subMu.Unlock()
				}
				st.churnLive[c] = append(st.churnLive[c], id)
				if len(st.churnLive[c]) > st.sp.churnLive {
					old := st.churnLive[c][0]
					st.churnLive[c] = st.churnLive[c][1:]
					if err := cl.Unsubscribe(expr.ID(old)); err != nil {
						st.logs.logf("churn unsubscribe on connection %d: %v", c, err)
						l.subErrs.Add(1)
					}
				}
			}
		}(c)
	}
	return &wg
}

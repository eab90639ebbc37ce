package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

// The traced run records spans from this file only, around calls into
// the broker's public seams: a broker.Matcher wrapper around the
// engine, net.Listener/net.Conn wrappers on the server side, wrapped
// client connections, and the client's Publish calls and handlers.
// Within one delivery the intervals
//
//	due ─loadgen.late─ publish start ─client.publish─ publish end
//	    ─broker.ingress─ match start ─apcm.match─ match end ─broker.egress─ handler
//
// tile the end-to-end latency with no gap or overlap.

// evSpans are the per-event span endpoints of the traced phase.
type evSpans struct {
	pubStart, pubEnd atomic.Int64
	cwStart, cwEnd   atomic.Int64 // client write of the publish frame
	srStart, srEnd   atomic.Int64 // server read of the publish frame
	mStart, mEnd     atomic.Int64
	swStart, swEnd   [conns]atomic.Int64 // server write of the delivery frame to each connection
}

// tracer collects spans and counters while on.
type tracer struct {
	on      atomic.Bool
	seqAttr expr.AttrID
	addrs   sync.Map // client local address → connection index

	table atomic.Pointer[spanTable] // swapped per phase

	clientWrites, clientWriteBytes                atomic.Int64
	serverWrites, serverWriteBytes, serverWriteNs atomic.Int64
	frames, frameIDs                              atomic.Int64
	handled, handleNs                             atomic.Int64 // publish frames the read loops handled, and their time
	matches, matchNs, matchIDs                    atomic.Int64
	subMu                                         sync.Mutex
	subNs, unsubNs                                []int64
}

// spanRing bounds the closed-loop span memory: the in-flight window is
// far smaller, so a slot is never reused while its event is live.
const spanRing = 1 << 16

// spanTable holds the spans of one phase, indexed by sequence number
// minus first.
type spanTable struct {
	first int64
	ev    []evSpans
}

func (tr *tracer) beginPhase(first int64, n int) {
	tr.table.Store(&spanTable{first: first, ev: make([]evSpans, max(n, spanRing))})
}

func (tr *tracer) spans(seq int64) *evSpans {
	t := tr.table.Load()
	if t == nil || seq < t.first {
		return nil
	}
	return &t.ev[(seq-t.first)%int64(len(t.ev))]
}

func (tr *tracer) published(seq, start, end int64) {
	if s := tr.spans(seq); s != nil {
		s.pubStart.Store(start)
		s.pubEnd.Store(end)
	}
}

// resetCounters zeroes the counters before a measured phase.
func (tr *tracer) resetCounters() {
	for _, c := range []*atomic.Int64{&tr.clientWrites, &tr.clientWriteBytes, &tr.serverWrites,
		&tr.serverWriteBytes, &tr.serverWriteNs, &tr.frames, &tr.frameIDs, &tr.handled, &tr.handleNs,
		&tr.matches, &tr.matchNs, &tr.matchIDs} {
		c.Store(0)
	}
	tr.subMu.Lock()
	tr.subNs, tr.unsubNs = nil, nil
	tr.subMu.Unlock()
}

// tracedMatcher is the broker.Matcher the traced broker runs against.
type tracedMatcher struct {
	*apcm.Engine
	tr *tracer
}

func (m *tracedMatcher) Match(ev *expr.Event) []expr.ID {
	if !m.tr.on.Load() {
		return m.Engine.Match(ev)
	}
	start := now()
	ids := m.Engine.Match(ev)
	end := now()
	m.tr.matches.Add(1)
	m.tr.matchNs.Add(end - start)
	m.tr.matchIDs.Add(int64(len(ids)))
	if v, ok := ev.Lookup(m.tr.seqAttr); ok {
		if s := m.tr.spans(int64(v)); s != nil {
			s.mStart.Store(start)
			s.mEnd.Store(end)
		}
	}
	return ids
}

func (m *tracedMatcher) Subscribe(x *expr.Expression) error {
	start := now()
	err := m.Engine.Subscribe(x)
	m.tr.observeSub(&m.tr.subNs, now()-start)
	return err
}

func (m *tracedMatcher) Unsubscribe(id expr.ID) bool {
	start := now()
	ok := m.Engine.Unsubscribe(id)
	m.tr.observeSub(&m.tr.unsubNs, now()-start)
	return ok
}

func (tr *tracer) observeSub(dst *[]int64, d int64) {
	if !tr.on.Load() {
		return
	}
	tr.subMu.Lock()
	*dst = append(*dst, d)
	tr.subMu.Unlock()
}

// seqOfEvent reads the sequence number out of an encoded event (the
// expr wire format: uvarint count, then delta-coded attribute and
// zigzag value pairs) without allocating.
func seqOfEvent(b []byte, seqAttr expr.AttrID) (int64, bool) {
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, false
	}
	off := n
	var attr uint64
	for i := uint64(0); i < cnt; i++ {
		d, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		attr += d
		if attr == uint64(seqAttr) {
			return int64(v>>1) ^ -int64(v&1), true
		}
	}
	return 0, false
}

// skipUvarints skips k uvarints and returns the rest.
func skipUvarints(b []byte, k uint64) []byte {
	for ; k > 0; k-- {
		_, n := binary.Uvarint(b)
		if n <= 0 {
			return nil
		}
		b = b[n:]
	}
	return b
}

// framer tracks frame boundaries on one direction of a connection: the
// broker writes a 4-byte length header, then the payload, one Write
// each; reads may arrive in pieces.
type framer struct {
	hdr     [4]byte
	hdrN    int
	need    int // payload bytes still to come; 0 while reading a header
	start   int64
	payload []byte // payload prefix kept for parsing
}

// clientConn wraps a client's connection: it counts writes and times
// the write of each publish frame.
type clientConn struct {
	net.Conn
	tr  *tracer
	w   framer
	wMu sync.Mutex
}

func (tr *tracer) clientConn(nc net.Conn, c int) net.Conn {
	tr.addrs.Store(nc.LocalAddr().String(), c)
	return &clientConn{Conn: nc, tr: tr}
}

func (cc *clientConn) Write(p []byte) (int, error) {
	on := cc.tr.on.Load()
	var start int64
	if on {
		start = now()
	}
	n, err := cc.Conn.Write(p)
	cc.wMu.Lock()
	defer cc.wMu.Unlock()
	if cc.w.need == 0 && len(p) == 4 {
		cc.w.start = start
		cc.w.need = int(binary.BigEndian.Uint32(p))
	} else {
		cc.w.need = 0
	}
	if !on {
		return n, err
	}
	end := now()
	cc.tr.clientWrites.Add(1)
	cc.tr.clientWriteBytes.Add(int64(n))
	if cc.w.need == 0 && len(p) > 0 && p[0] == 'P' && cc.w.start != 0 {
		if seq, ok := seqOfEvent(p[1:], cc.tr.seqAttr); ok {
			if s := cc.tr.spans(seq); s != nil {
				s.cwStart.Store(cc.w.start)
				s.cwEnd.Store(end)
			}
		}
	}
	return n, err
}

// tracedListener wraps the broker's listener so every accepted
// connection is a serverConn.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: nc, tr: l.tr, idx: -2}, nil
}

// serverConn is the broker's side of a connection: it times the read
// of each publish frame and the write of each delivery frame.
type serverConn struct {
	net.Conn
	tr  *tracer
	idx int // client connection index; -1 for the follower; -2 unresolved
	r   framer
	w   framer
	// pubRead is when the read loop finished reading a publish frame
	// while tracing was on; its next Read call ends the frame's
	// handling (decode, Match, handing the deliveries on).
	pubRead int64
}

func (sc *serverConn) client() int {
	if sc.idx == -2 {
		sc.idx = -1
		if v, ok := sc.tr.addrs.Load(sc.RemoteAddr().String()); ok {
			sc.idx = v.(int)
		}
	}
	return sc.idx
}

// Read is called by the connection's read loop only. Frame boundaries
// are tracked even while tracing is off, so switching it on mid-stream
// cannot misparse.
func (sc *serverConn) Read(p []byte) (int, error) {
	if sc.pubRead != 0 {
		sc.tr.handled.Add(1)
		sc.tr.handleNs.Add(now() - sc.pubRead)
		sc.pubRead = 0
	}
	n, err := sc.Conn.Read(p)
	on := sc.tr.on.Load()
	var t int64
	if on {
		t = now()
	}
	f := &sc.r
	b := p[:max(n, 0)]
	for len(b) > 0 {
		if f.need == 0 {
			k := copy(f.hdr[f.hdrN:], b)
			f.hdrN += k
			b = b[k:]
			if f.hdrN == 4 {
				f.hdrN = 0
				f.need = int(binary.BigEndian.Uint32(f.hdr[:]))
				f.start = t
				f.payload = f.payload[:0]
			}
			continue
		}
		k := min(f.need, len(b))
		if len(f.payload) < 64 {
			f.payload = append(f.payload, b[:min(k, 64-len(f.payload))]...)
		}
		f.need -= k
		b = b[k:]
		if on && f.need == 0 && f.start != 0 && len(f.payload) > 0 && f.payload[0] == 'P' {
			sc.pubRead = t
			if seq, ok := seqOfEvent(f.payload[1:], sc.tr.seqAttr); ok {
				if s := sc.tr.spans(seq); s != nil {
					s.srStart.Store(f.start)
					s.srEnd.Store(t)
				}
			}
		}
	}
	return n, err
}

// Write is called by the connection's writer goroutine (and, before
// the handshake, its read loop): one header write, then one payload
// write per frame.
func (sc *serverConn) Write(p []byte) (int, error) {
	on := sc.tr.on.Load()
	var start int64
	if on {
		start = now()
	}
	n, err := sc.Conn.Write(p)
	header := sc.w.need == 0 && len(p) == 4
	if header {
		sc.w.start = start
		sc.w.need = int(binary.BigEndian.Uint32(p))
	} else {
		sc.w.need = 0
	}
	if !on {
		return n, err
	}
	end := now()
	c := sc.client()
	if c < 0 { // the follower's replication connection
		return n, err
	}
	sc.tr.serverWrites.Add(1)
	sc.tr.serverWriteBytes.Add(int64(n))
	sc.tr.serverWriteNs.Add(end - start)
	if header || len(p) == 0 || (p[0] != 'M' && p[0] != 'D') {
		return n, err
	}
	body := p[1:]
	if p[0] == 'D' {
		body = skipUvarints(body, 1) // log offset
	}
	ids, k := binary.Uvarint(body)
	if k <= 0 {
		return n, err
	}
	sc.tr.frames.Add(1)
	sc.tr.frameIDs.Add(int64(ids))
	if sc.w.start == 0 {
		return n, err
	}
	if seq, ok := seqOfEvent(skipUvarints(body[k:], ids), sc.tr.seqAttr); ok {
		if s := sc.tr.spans(seq); s != nil {
			s.swStart[c].Store(sc.w.start)
			s.swEnd[c].Store(end)
		}
	}
	return n, err
}

// stageReport is the traced open-loop phase broken into its stages.
type stageReport struct {
	deliveries, complete int
	e2eMean              float64 // µs, all timed deliveries
	stageMean            map[string]float64
	selfMean             map[string]float64
	sumErr               float64 // |Σ stage means − e2e mean| / e2e mean
	publish, ingress     []float64
	match, egress        []float64
	// broker.ingress split at the server's read of the publish frame:
	// wait (Publish return → read start: loopback transit and the wait
	// for the connection's read goroutine, which runs Match and the
	// deliveries of earlier frames), read (the frame's header and
	// payload reads) and decode (read end → Match start).
	splitMean                  map[string]float64
	ingressWait, ingressDecode []float64
}

// analyze computes per-stage figures over the measured deliveries of an
// open-loop ledger and writes a sample of the spans to path.
func (tr *tracer) analyze(l *ledger, path string) (stageReport, error) {
	r := stageReport{stageMean: map[string]float64{}, selfMean: map[string]float64{}, splitMean: map[string]float64{}}
	splits := []string{"broker.ingress.wait", "broker.ingress.read", "broker.ingress.decode"}
	splitSum := make([]float64, len(splits))
	// clamp bounds a server-side read time to the ingress interval: the
	// broker may read a frame's header before the client's Write of it
	// returns.
	clamp := func(t, lo, hi int64) int64 { return min(max(t, lo), hi) }
	stages := []string{"loadgen.late", "client.publish", "broker.ingress", "apcm.match", "broker.egress"}
	sum := make([]float64, len(stages))
	self := map[string]float64{}
	var e2eSum float64
	seen := make(map[int64]bool)    // events whose per-event stages are counted
	emitted := make(map[int64]bool) // events whose spans are written

	f, err := os.Create(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type span struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Seq    int64  `json:"seq"`
	}
	emit := func(name string, start, end, id, parent, seq int64) {
		_ = enc.Encode(span{name, start, end, id, parent, seq})
	}
	// overlap is the part of [a,b] that [c,d] covers.
	overlap := func(a, b, c, d int64) float64 {
		lo, hi := max(a, c), min(b, d)
		if hi <= lo || c == 0 {
			return 0
		}
		return float64(hi - lo)
	}
	for c := 0; c < conns; c++ {
		_, dl := l.timedDeliveries(c)
		for _, d := range dl {
			s := tr.spans(d.seq)
			due := l.slots[d.seq-l.first].due.Load()
			r.deliveries++
			e2eSum += float64(d.t - due)
			if s == nil {
				continue
			}
			ps, pe, ms, me := s.pubStart.Load(), s.pubEnd.Load(), s.mStart.Load(), s.mEnd.Load()
			if ps == 0 || pe == 0 || ms == 0 || me == 0 || ps < due || pe < ps || ms < pe || me < ms || d.t < me {
				continue
			}
			r.complete++
			iv := []float64{float64(ps - due), float64(pe - ps), float64(ms - pe), float64(me - ms), float64(d.t - me)}
			for i, v := range iv {
				sum[i] += v
			}
			self["client.publish"] += iv[1] - overlap(ps, pe, s.cwStart.Load(), s.cwEnd.Load())
			self["broker.ingress"] += iv[2] - overlap(pe, ms, s.srStart.Load(), s.srEnd.Load())
			self["broker.egress"] += iv[4] - overlap(me, d.t, s.swStart[c].Load(), s.swEnd[c].Load())
			rs, re := s.srStart.Load(), s.srEnd.Load()
			if rs == 0 || re == 0 {
				rs, re = ms, ms // read not seen: all of ingress counts as wait
			}
			rs, re = clamp(rs, pe, ms), clamp(re, pe, ms)
			split := []float64{float64(rs - pe), float64(max(re-rs, 0)), float64(ms - max(re, rs))}
			for i, v := range split {
				splitSum[i] += v
			}
			r.egress = append(r.egress, iv[4]/1e3)
			if !seen[d.seq] {
				seen[d.seq] = true
				r.publish = append(r.publish, iv[1]/1e3)
				r.ingress = append(r.ingress, iv[2]/1e3)
				r.ingressWait = append(r.ingressWait, split[0]/1e3)
				r.ingressDecode = append(r.ingressDecode, split[2]/1e3)
				r.match = append(r.match, iv[3]/1e3)
			}
			if d.seq%64 != 0 {
				continue
			}
			// A sample of the span tree: the event root (due to its last
			// delivery), its stages, and the I/O spans under the stages
			// that contain them; one egress per delivery.
			root := d.seq * 16
			egress := root + 8 + int64(c)
			if !emitted[d.seq] {
				emitted[d.seq] = true
				done := l.slots[d.seq-l.first].done.Load()
				if done == 0 {
					done = d.t
				}
				emit("event", due, done, root, 0, d.seq)
				emit("loadgen.late", due, ps, root+1, root, d.seq)
				emit("client.publish", ps, pe, root+2, root, d.seq)
				emit("client.write", s.cwStart.Load(), s.cwEnd.Load(), root+3, root+2, d.seq)
				emit("broker.ingress", pe, ms, root+4, root, d.seq)
				emit("broker.read", s.srStart.Load(), s.srEnd.Load(), root+5, root+4, d.seq)
				emit("apcm.match", ms, me, root+6, root, d.seq)
			}
			emit("broker.egress", me, d.t, egress, root, d.seq)
			emit("broker.write", s.swStart[c].Load(), s.swEnd[c].Load(), egress+4, egress, d.seq)
		}
	}
	if err := w.Flush(); err != nil {
		return r, err
	}
	if r.deliveries == 0 || r.complete == 0 {
		r.sumErr = math.Inf(1)
		return r, f.Close()
	}
	r.e2eMean = e2eSum / float64(r.deliveries) / 1e3
	var total float64
	for i, name := range stages {
		r.stageMean[name] = sum[i] / float64(r.complete) / 1e3
		total += r.stageMean[name]
	}
	for i, name := range splits {
		r.splitMean[name] = splitSum[i] / float64(r.complete) / 1e3
	}
	for name, v := range self {
		r.selfMean[name] = v / float64(r.complete) / 1e3
	}
	r.sumErr = math.Abs(total-r.e2eMean) / r.e2eMean
	return r, f.Close()
}

package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/broker"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/commitlog"
	"github.com/streammatch/apcm/metrics"
)

// stack is one stood-up broker: the server on a loopback listener, the
// client connections with every subscription installed over the
// protocol, and for durable-repl an in-process follower.
type stack struct {
	sp      spec
	in      *inputs
	eng     *apcm.Engine
	srv     *broker.Server
	reg     *metrics.Registry
	fol     *broker.Server
	folEng  *apcm.Engine
	folReg  *metrics.Registry
	clients [conns]*broker.Client
	rec     *recorder
	logs    *logSink
	dir     string
	serves  sync.WaitGroup

	// Churn state per connection survives across phases: the next
	// client id and the live churn subscriptions, oldest first.
	churnNext [conns]uint64
	churnLive [conns][]uint64
}

// logConfig is the commit-log configuration of the durable workloads:
// defaults, except that flushes skip fsync. On a shared disk the fsync
// time swings by 2× and more for tens of seconds at a time, which no
// run length here averages out; with fsync off the broker's durable
// path (appends, group commit, the serial waits, replication) is still
// all measured, and the device's fsync time is reported separately by
// the standalone commitlog replay of the traced run.
var logConfig = commitlog.Config{NoFsync: true}

// logSink receives the broker's diagnostics. It keeps the first lines
// for the report and signals when the leader reports its follower
// attached.
type logSink struct {
	mu       sync.Mutex
	lines    []string
	attached chan struct{}
	once     sync.Once
}

func newLogSink() *logSink { return &logSink{attached: make(chan struct{})} }

func (l *logSink) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	l.mu.Lock()
	if len(l.lines) < 50 {
		l.lines = append(l.lines, line)
	}
	l.mu.Unlock()
	if strings.Contains(line, "replica") && strings.Contains(line, "attached") {
		l.once.Do(func() { close(l.attached) })
	}
}

// standUp builds a stack; the time it takes is the set-up metric. With
// a tracer, the engine, the listener and the client connections are
// wrapped so the traced run can time each layer.
func standUp(sp spec, in *inputs, rec *recorder, tr *tracer, dir string) (st *stack, err error) {
	st = &stack{sp: sp, in: in, rec: rec, logs: newLogSink(), dir: dir}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.eng, err = apcm.New(apcm.Options{})
	if err != nil {
		return nil, err
	}
	var m broker.Matcher = st.eng
	if tr != nil {
		m = &tracedMatcher{Engine: st.eng, tr: tr}
	}
	st.reg = metrics.New()
	st.srv = broker.NewServer(m)
	st.srv.Metrics = st.reg
	st.srv.Logf = st.logs.logf
	if sp.durable {
		st.srv.LogDir = filepath.Join(dir, "leader")
		st.srv.Log = logConfig
		st.srv.ReplSync = sp.repl
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if tr != nil {
		ln = &tracedListener{Listener: ln, tr: tr}
	}
	st.serve(st.srv, ln)

	if sp.repl {
		if err := st.startFollower(addr); err != nil {
			return nil, err
		}
	}
	for c := range st.clients {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			nc = tr.clientConn(nc, c)
		}
		st.clients[c] = broker.NewClientOpts(nc, broker.ClientOptions{})
	}
	if err := st.subscribeAll(); err != nil {
		return nil, err
	}
	if sp.durable {
		for c, cl := range st.clients {
			if _, err := cl.Resume(fmt.Sprintf("consumer-%d", c), 0); err != nil {
				return nil, fmt.Errorf("resume connection %d: %w", c, err)
			}
		}
	}
	if sp.repl {
		// The log is empty at set-up, so an attached follower is a
		// caught-up one; ReplSync needs it attached before the first
		// publish or deliveries degrade to single-node durability.
		select {
		case <-st.logs.attached:
		case <-time.After(30 * time.Second):
			return nil, errors.New("follower did not attach within 30s")
		}
	}
	return st, nil
}

func (st *stack) serve(s *broker.Server, ln net.Listener) {
	st.serves.Add(1)
	go func() {
		defer st.serves.Done()
		if err := s.Serve(ln); err != nil {
			st.logs.logf("serve: %v", err)
		}
	}()
}

func (st *stack) startFollower(leader string) error {
	var err error
	st.folEng, err = apcm.New(apcm.Options{})
	if err != nil {
		return err
	}
	st.folReg = metrics.New()
	st.fol = broker.NewServer(st.folEng)
	st.fol.Metrics = st.folReg
	st.fol.Logf = st.logs.logf
	st.fol.LogDir = filepath.Join(st.dir, "follower")
	st.fol.Log = logConfig
	st.fol.Follow = leader
	st.fol.NodeID = "follower"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.serve(st.fol, ln)
	return nil
}

// subscribeAll installs the static subscriptions and the probes, each
// connection its own share, concurrently.
func (st *stack) subscribeAll() error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := range st.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := st.clients[c]
			for i := c; i < len(st.in.subs); i += conns {
				x := st.in.subs[i]
				if err := cl.Subscribe(x, st.rec.handler(c, uint64(x.ID))); err != nil {
					errs[c] = fmt.Errorf("subscribe %d on connection %d: %w", i, c, err)
					return
				}
			}
			for j, x := range st.in.probes {
				if st.sp.probes[j] != c {
					continue
				}
				if err := cl.Subscribe(x, st.rec.handler(c, uint64(x.ID))); err != nil {
					errs[c] = fmt.Errorf("probe %d: %w", j, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// droppedConns counts connections the broker or the clients gave up on.
func (st *stack) droppedConns() int64 {
	n := st.srv.SlowConsumerDrops() + st.srv.HeartbeatTimeouts()
	for _, cl := range st.clients {
		if cl != nil && cl.Err() != nil {
			n++
		}
	}
	return n
}

// close tears the stack down. The engines close first so that
// unregistering the connections' subscriptions is not timed work.
func (st *stack) close() {
	if st.eng != nil {
		st.eng.Close()
	}
	if st.folEng != nil {
		st.folEng.Close()
	}
	for _, cl := range st.clients {
		if cl != nil {
			cl.Close()
		}
	}
	if st.fol != nil {
		st.fol.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	st.serves.Wait()
	os.RemoveAll(st.dir)
}

// snapshot reads a registry into a name→value map (histograms as their
// summaries). Callers only read a registry after the server has
// answered a hello, i.e. after Serve opened the commit log: a snapshot
// racing Serve's log opening can deadlock on the server's lock.
func snapshot(reg *metrics.Registry) map[string]metrics.Value {
	out := make(map[string]metrics.Value)
	for _, v := range reg.Snapshot() {
		out[v.Name] = v
	}
	return out
}

// churnHandler counts churn deliveries without checking them: a churn
// subscription's lifetime races the events.
func (st *stack) churnHandler(*expr.Event) { st.rec.churnDelivery() }

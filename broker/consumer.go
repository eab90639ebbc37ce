package broker

import (
	"errors"
	"fmt"
	"sync"

	"github.com/streammatch/apcm/internal/commitlog"
)

// consumerState is one durable consumer identity: a name that outlives
// any single connection. At most one connection is attached at a time;
// its matched events are committed to the log before delivery, and its
// acknowledged offset persists so the next attachment resumes where the
// last one stopped.
//
// Attachment protocol: a resuming connection claims cs.c first, replays
// logged history, and only then flips cs.live. Publishers append every
// matched record under cs.mu but push it to the connection only while
// live — records appended mid-replay are picked up by the replay's
// final round, which runs under cs.mu, so the replay/live handoff
// neither loses nor needs to deduplicate deliveries.
type consumerState struct {
	s    *Server
	name string

	mu   sync.Mutex //apcm:lockrank=3
	c    *conn // claiming connection; nil when offline
	live bool  // replay finished; publishers deliver directly
}

// detach releases the consumer if c still holds it.
func (cs *consumerState) detach(c *conn) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.c == c {
		cs.c = nil
		if cs.live {
			cs.live = false
			cs.s.attachedConsumers.Add(-1)
		}
	}
}

// openLog opens the commit log and offset store when LogDir is set.
// Called from Serve before the accept loop, so every connection
// goroutine observes the fields fully initialised; they are never
// reassigned afterwards (Close closes them in place). The opens run
// outside s.mu: commitlog.Open registers metrics, and a registry
// callback may be waiting for s.mu.
func (s *Server) openLog() error {
	if s.LogDir == "" {
		return nil
	}
	s.mu.RLock()
	done := s.log != nil || s.closed
	s.mu.RUnlock()
	if done {
		return nil
	}
	cfg := s.Log
	if cfg.Metrics == nil {
		cfg.Metrics = s.Metrics
	}
	// Offsets open first: the log's retention floor callback reads the
	// consumer low-water mark (OffsetStore.Min takes only the store's
	// own lock, so calling it from under the log lock is cycle-free).
	offs, err := commitlog.OpenOffsets(s.LogDir)
	if err != nil {
		return fmt.Errorf("broker: opening offset store: %w", err)
	}
	if cfg.RetainFloor == nil {
		cfg.RetainFloor = offs.Min
	}
	l, err := commitlog.Open(s.LogDir, cfg)
	if err != nil {
		offs.Close()
		return fmt.Errorf("broker: opening commit log: %w", err)
	}
	epoch, err := commitlog.LoadEpoch(s.LogDir)
	if err != nil {
		offs.Close()
		l.Close()
		return fmt.Errorf("broker: loading replication epoch: %w", err)
	}
	s.mu.Lock()
	lost := s.log != nil || s.closed
	if !lost {
		s.epoch.Store(epoch)
		s.log, s.offsets = l, offs
	}
	s.mu.Unlock()
	if lost {
		offs.Close()
		l.Close()
	}
	return nil
}

// closeLog flushes and closes the durable state (Close path).
func (s *Server) closeLog() {
	s.mu.RLock()
	l, offs := s.log, s.offsets
	s.mu.RUnlock()
	if offs != nil {
		offs.Close()
	}
	if l != nil {
		l.Close()
	}
}

// Checkpoint persists restart state: the engine's subscription table
// (when path is non-empty), every consumer's acknowledged offset, and
// the commit log's staged tail. Each failing component counts toward
// apcm_broker_checkpoint_errors_total; the first error is returned.
func (s *Server) Checkpoint(path string) error {
	var first error
	record := func(err error) {
		if err != nil {
			s.checkpointErrs.Add(1)
			if first == nil {
				first = err
			}
		}
	}
	if path != "" {
		record(s.eng.CheckpointSubscriptions(path))
	}
	if s.offsets != nil {
		record(s.offsets.Sync())
	}
	if s.log != nil {
		record(s.log.Sync())
	}
	return first
}

// appendConsumerRecord encodes and commits one delivery record:
// uvarint name length, name, then tail (uvarint n, n×uvarint client
// ids, event) — the same tail bytes the durable frame carries.
func (s *Server) appendConsumerRecord(name string, tail []byte) (uint64, error) {
	rec := appendUvarint(nil, uint64(len(name)))
	rec = append(rec, name...)
	rec = append(rec, tail...)
	return s.log.Append(rec)
}

// decodeConsumerRecord splits a logged record into its consumer name
// and delivery tail.
func decodeConsumerRecord(rec []byte) (name string, tail []byte, err error) {
	nlen, rest, err := readUvarint(rec)
	if err != nil || uint64(len(rest)) < nlen {
		return "", nil, errors.New("broker: malformed consumer record")
	}
	return string(rest[:nlen]), rest[nlen:], nil
}

// deliverDurable commits one matched delivery for cs and, if a live
// connection is attached, pushes it as a durable frame. The commit
// happens under cs.mu so it is ordered against the resume replay:
// whatever is appended before the replay's final round is replayed,
// whatever after is delivered here. Delivery counts only after the
// record is durable and the frame was accepted by the outbox.
//
//apcm:durable
func (s *Server) deliverDurable(target *conn, cs *consumerState, tail []byte, nsubs int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	off, err := s.appendConsumerRecord(cs.name, tail)
	if err != nil {
		s.logAppendErrs.Add(1)
		s.Logf("broker: durable delivery for %q lost: %v", cs.name, err)
		return
	}
	if s.ReplSync && s.role.Load() == roleLeader {
		// delivered ⊆ committed ⊆ replicated: park until the follower
		// acknowledged this record. With no follower attached the wait
		// degrades to single-node durability rather than blocking —
		// counted, so operators can alert on the weakened guarantee.
		s.replSyncWaits.Add(1)
		if _, attached := s.log.Replicated(); !attached {
			s.replSyncDegraded.Add(1)
		} else if err := s.log.WaitReplicated(off, target.replDead); err != nil {
			s.Logf("broker: repl-sync wait for %q at offset %d: %v", cs.name, off, err)
		}
	}
	if cs.live && cs.c == target {
		frame := appendUvarint([]byte{msgDurable}, off)
		frame = append(frame, tail...)
		if target.send(frame) {
			s.delivered.Add(int64(nsubs))
		}
	}
}

func (c *conn) handleResume(body []byte) error {
	id, rest, err := readUvarint(body)
	if err != nil {
		return errors.New("bad resume")
	}
	from, rest, err := readUvarint(rest)
	if err != nil {
		return errors.New("bad resume")
	}
	name := string(rest)
	s := c.s
	if s.log == nil {
		c.nack(id, errors.New("durable delivery disabled (broker has no log dir)"))
		return nil
	}
	if !commitlog.ValidName(name) {
		c.nack(id, fmt.Errorf("invalid consumer name %q", name))
		return nil
	}
	s.mu.Lock()
	cs := s.consumers[name]
	if cs == nil {
		cs = &consumerState{s: s, name: name}
		s.consumers[name] = cs
	}
	s.mu.Unlock()
	// Publish c.consumer before claiming cs.c: shutdown reads c.consumer
	// to detach, so the claim must never outlive its visibility there.
	c.mu.Lock()
	if c.consumer != nil {
		c.mu.Unlock()
		c.nack(id, errors.New("connection already resumed a consumer"))
		return nil
	}
	c.consumer = cs
	c.mu.Unlock()
	cs.mu.Lock()
	if prev := cs.c; prev != nil {
		// A claim by a dead connection that raced past its own detach is
		// stale, not busy: steal it so the consumer can never wedge.
		select {
		case <-prev.done:
			cs.c = nil
			if cs.live {
				cs.live = false
				s.attachedConsumers.Add(-1)
			}
		default:
			cs.mu.Unlock()
			c.mu.Lock()
			c.consumer = nil
			c.mu.Unlock()
			c.nack(id, fmt.Errorf("consumer %q already attached", name))
			return nil
		}
	}
	cs.c = c
	cs.mu.Unlock()

	// Effective start: the client's request, clamped forward by the
	// persisted acknowledged offset and by retention.
	start := from
	if acked, ok := s.offsets.Get(name); ok && acked > start {
		start = acked
	}
	if first := s.log.FirstOffset(); first > start {
		start = first
	}
	s.resumes.Add(1)
	// Reply before replaying so the client learns its start offset
	// before the first durable frame.
	ok := appendUvarint([]byte{msgResumeOK}, id)
	ok = appendUvarint(ok, start)
	if !c.send(ok) {
		return errors.New("connection closed during resume")
	}
	return c.replayConsumer(cs, start)
}

// replayConsumer streams cs's logged records from start to the present
// and attaches the connection for live delivery. Catch-up rounds run
// unlocked (history can be long); the final round holds cs.mu so that,
// combined with publishers appending under cs.mu, the handoff boundary
// is exact: every record is either replayed here or pushed live. All
// rounds continue one commit-log cursor, so each reads only what the
// previous one did not.
func (c *conn) replayConsumer(cs *consumerState, start uint64) error {
	s := c.s
	tail := s.log.Tail(start)
	defer tail.Close()
	pos := start
	for round := 0; round < 3; round++ {
		committed := s.log.Committed()
		if pos >= committed {
			break
		}
		if err := c.replayRange(cs.name, tail, start, committed); err != nil {
			return err
		}
		pos = committed
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.c != c {
		return errors.New("consumer detached during resume replay")
	}
	if committed := s.log.Committed(); pos < committed {
		if err := c.replayRange(cs.name, tail, start, committed); err != nil {
			return err
		}
	}
	cs.live = true
	s.attachedConsumers.Add(1)
	return nil
}

// replayRange sends name's records at offsets in [from, to) from the
// batches tail yields below to (to is a commit frontier, so always a
// batch boundary).
func (c *conn) replayRange(name string, tail *commitlog.Tail, from, to uint64) error {
	for tail.Next(to) {
		for i, rec := range tail.Records() {
			off := tail.Base() + uint64(i)
			if off < from {
				continue
			}
			rname, rest, err := decodeConsumerRecord(rec)
			if err != nil {
				return fmt.Errorf("record %d: %w", off, err)
			}
			if rname != name {
				continue
			}
			frame := appendUvarint([]byte{msgDurable}, off)
			frame = append(frame, rest...)
			if !c.send(frame) {
				return errors.New("connection closed during resume replay")
			}
			c.s.resumeReplayed.Add(1)
		}
	}
	return tail.Err()
}

func (c *conn) handleOffsetAck(body []byte) error {
	off, rest, err := readUvarint(body)
	if err != nil || len(rest) != 0 {
		return errors.New("bad offset-ack")
	}
	c.mu.Lock()
	cs := c.consumer
	c.mu.Unlock()
	if cs == nil {
		return errors.New("offset-ack before resume")
	}
	c.s.offsetAcks.Add(1)
	// Store the next offset; the store is monotone, so replayed or
	// reordered acks regress nothing.
	if err := c.s.offsets.Set(cs.name, off+1); err != nil {
		c.s.Logf("broker: persisting offset for %q: %v", cs.name, err)
	}
	return nil
}

package commitlog

import (
	"fmt"
	"os"
)

// Tail is a forward cursor over the log's committed batches, and the
// only way the log is read batch by batch: the replication sender
// streams a follower's tail through one, consumer resume replay
// continues one across its catch-up rounds, and Read is a loop over
// one. It remembers the segment it is in, how many of that segment's
// bytes it has read and the offset of the next batch, so a refill
// reads only what was committed since the previous one:
//
//   - one l.mu acquisition snapshots the segment's committed extent
//     (the active segment's size advances together with the committed
//     watermark in flushLocked, IngestBatch and InstallSegment, so a
//     batch still being written is never inside it);
//   - one pread fetches the bytes [pos, size) into a reused buffer
//     through a file handle the cursor holds;
//   - those bytes run through a Scanner, so every batch keeps its CRC,
//     structure and offset-continuity checks.
//
// When a rotation seals the cursor's segment, the cursor drains the
// rest of it before moving to the successor, so a batch committed
// between two reads is never skipped. A Tail is not safe for
// concurrent use; Close releases its file handle.
type Tail struct {
	l      *Log
	from   uint64 // batches ending at or below from are skipped
	strict bool   // replication: from is a retained batch boundary

	seg uint64   // base offset of the segment being read
	f   *os.File // handle on seg; nil until the first refill
	pos int64    // bytes of seg read so far
	end uint64   // offset one past the last batch read into buf
	buf []byte
	sc  Scanner // the batches of buf not yet returned
	err error
}

// Tail returns a cursor over the committed records at offsets >= from,
// for record readers (consumer replay, Read). from may fall inside a
// batch: the first batch Next returns is then the one holding it, and
// the caller skips its records below from. Offsets retention deleted
// are skipped; their records are gone by policy.
func (l *Log) Tail(from uint64) *Tail {
	return &Tail{l: l, from: from, end: from, sc: Scanner{next: from}}
}

// ReplicaTail returns a cursor over the committed batches from offset
// from onward, for shipping them verbatim to a follower. from must be
// a batch boundary (a follower's next offset always is) that is
// retained and not beyond the committed watermark; otherwise the error
// wraps ErrNotReplicable — here for a position below retention or
// beyond committed, from Next (via Err) for one inside a batch or one
// retention deletes before the cursor gets there.
func (l *Log) ReplicaTail(from uint64) (*Tail, error) {
	if lo := l.FirstOffset(); from < lo {
		return nil, fmt.Errorf("%w: offset %d below retained first offset %d", ErrNotReplicable, from, lo)
	}
	if committed := l.Committed(); from > committed {
		return nil, fmt.Errorf("%w: offset %d beyond committed %d", ErrNotReplicable, from, committed)
	}
	t := l.Tail(from)
	t.strict = true
	return t, nil
}

// Next advances to the next committed batch whose base offset is below
// end, reading more of the log once the batches already read are used
// up. It returns false when there is none — the cursor has caught up
// with the committed watermark, or reached end — and on an error,
// which Err then reports. After a false with a nil Err, a later Next
// returns whatever was committed in between.
//
//apcm:hotpath
func (t *Tail) Next(end uint64) bool {
	for t.err == nil && t.sc.NextOffset() < end {
		if t.sc.Next() {
			if t.sc.NextOffset() <= t.from {
				continue // positioning: wholly below the start
			}
			if t.strict && t.sc.Base() < t.from {
				return t.insideBatch()
			}
			return true
		}
		if !t.drained() || !t.refill() {
			return false
		}
	}
	return false
}

// refill reads the bytes of the cursor's segment committed since the
// last refill, moving to the next segment first when the cursor has
// drained a sealed one. It returns false when there is nothing new to
// read or on an error (t.err). Its one l.mu acquisition is the
// snapshot in tailExtent.
//
//apcm:hotpath
func (t *Tail) refill() bool {
	next := t.sc.NextOffset()
	sg, sealed := t.l.tailExtent(next)
	if t.f == nil || sg.base != t.seg {
		if !t.enter(sg, next) {
			return t.err == nil // retention deleted sg: look again
		}
		next = sg.base
	}
	n := sg.size - t.pos
	if n == 0 {
		if sealed {
			t.err = shortSegment(sg, next)
		}
		return false
	}
	if int64(cap(t.buf)) < n {
		t.buf = make([]byte, n)
	}
	data := t.buf[:n]
	if _, err := t.f.ReadAt(data, t.pos); err != nil {
		t.err = readError(sg, err)
		return false
	}
	t.l.mReadB.Add(n)
	t.pos += n
	t.end = sg.end
	t.sc = Scanner{data: data, next: next, recs: t.sc.recs[:0]}
	return true
}

// drained reports whether the batches read so far held exactly what
// was committed when they were read. Anything less is corruption, not
// a torn tail: the cursor never reads past the committed extent.
func (t *Tail) drained() bool {
	switch {
	case t.sc.Err() != nil:
		t.err = fmt.Errorf("commitlog: reading segment %d: %w", t.seg, t.sc.Err())
	case t.sc.NextOffset() != t.end:
		t.err = fmt.Errorf("%w: segment %d ends at offset %d, expected %d", ErrCorrupt, t.seg, t.sc.NextOffset(), t.end)
	}
	return t.err == nil
}

// insideBatch fails a replication cursor whose start turned out to sit
// inside a batch.
func (t *Tail) insideBatch() bool {
	t.err = fmt.Errorf("%w: offset %d is inside a batch [%d,%d)", ErrNotReplicable, t.from, t.sc.Base(), t.sc.NextOffset())
	return false
}

// shortSegment and readError build the refill errors outside the hot
// path.
func shortSegment(sg segment, next uint64) error {
	return fmt.Errorf("%w: sealed segment %d ends at offset %d, expected %d", ErrCorrupt, sg.base, next, sg.end)
}

func readError(sg segment, err error) error {
	return fmt.Errorf("commitlog: reading segment %d: %w", sg.base, err)
}

// enter moves the cursor to the start of segment sg: the segment
// holding the start offset on the first refill (Next skips the
// batches before it), the successor starting at next after a
// rotation, or one starting above next past a retention gap. It
// reports false when sg's file is gone (retention raced the snapshot;
// a record reader looks again) or on an error (t.err).
func (t *Tail) enter(sg segment, next uint64) bool {
	if sg.base > next && t.strict {
		t.err = fmt.Errorf("%w: offset %d retained away (first retained %d)", ErrNotReplicable, next, sg.base)
		return false
	}
	t.Close()
	f, err := os.Open(sg.path)
	if err != nil {
		switch {
		case !os.IsNotExist(err):
			t.err = err
		case t.strict:
			t.err = fmt.Errorf("%w: segment at base %d deleted", ErrNotReplicable, sg.base)
		case t.l.FirstOffset() <= sg.base:
			t.err = fmt.Errorf("commitlog: live segment %d missing: %w", sg.base, err)
		}
		return false
	}
	t.f, t.seg, t.pos, t.end = f, sg.base, 0, sg.base
	t.sc = Scanner{next: sg.base, recs: t.sc.recs[:0]}
	return true
}

// tailExtent snapshots the committed extent of the segment a cursor at
// offset next reads: the oldest sealed segment ending above next, else
// the active segment. sealed reports that the extent is final.
func (l *Log) tailExtent(next uint64) (sg segment, sealed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if next < l.active.base {
		for _, s := range l.segs {
			if s.end > next {
				return s, true
			}
		}
	}
	sg = l.active
	sg.end = l.committed
	return sg, false
}

// Base returns the base offset of the current batch.
func (t *Tail) Base() uint64 { return t.sc.Base() }

// Records returns the current batch's records, the first at offset
// Base(). The slices alias the cursor's buffer and are invalidated by
// the next call to Next.
func (t *Tail) Records() [][]byte { return t.sc.Records() }

// RawBatch returns the current batch's on-disk bytes, header included,
// valid until the next call to Next.
func (t *Tail) RawBatch() []byte { return t.sc.RawBatch() }

// NextOffset returns the offset one past the current batch.
func (t *Tail) NextOffset() uint64 { return t.sc.NextOffset() }

// Err returns the error that stopped the cursor, if any. It is sticky.
func (t *Tail) Err() error { return t.err }

// Close releases the cursor's file handle; the cursor must not be used
// afterwards. Safe on a nil or never-read Tail.
func (t *Tail) Close() error {
	if t == nil || t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

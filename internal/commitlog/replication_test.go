package commitlog

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fillLeader appends n records ("rec-%04d") and syncs.
func fillLeader(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// replicate ships everything the leader has committed beyond the
// follower's next offset: whole sealed segments where the positions
// line up, streamed batches otherwise.
func replicate(t *testing.T, leader, follower *Log) {
	t.Helper()
	for {
		next := follower.NextOffset()
		if next >= leader.Committed() {
			return
		}
		installed := false
		for _, si := range leader.SealedSegments() {
			if si.Base == next {
				data, _, err := leader.ReadSegment(si.Base)
				if err != nil {
					t.Fatalf("ReadSegment(%d): %v", si.Base, err)
				}
				if err := follower.InstallSegment(data); err != nil {
					t.Fatalf("InstallSegment(%d): %v", si.Base, err)
				}
				installed = true
				break
			}
		}
		if installed {
			continue
		}
		tail, err := leader.ReplicaTail(next)
		if err != nil {
			t.Fatalf("ReplicaTail(%d): %v", next, err)
		}
		defer tail.Close()
		for tail.Next(math.MaxUint64) {
			if _, err := follower.IngestBatch(tail.RawBatch()); err != nil {
				t.Fatalf("IngestBatch(%d): %v", tail.Base(), err)
			}
		}
		if err := tail.Err(); err != nil {
			t.Fatalf("ReplicaTail(%d): %v", next, err)
		}
		return
	}
}

// TestReplicateCatchUpFromScratch: a fresh follower catches up on a
// leader with multiple sealed segments via segment install + batch
// streaming and ends up with a byte-identical record prefix.
func TestReplicateCatchUpFromScratch(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 512
	leader := openLog(t, t.TempDir(), cfg)
	fillLeader(t, leader, 200)
	if leader.Segments() < 3 {
		t.Fatalf("want several segments, got %d", leader.Segments())
	}

	follower := openLog(t, t.TempDir(), cfg)
	replicate(t, leader, follower)

	if got, want := follower.Committed(), leader.Committed(); got != want {
		t.Fatalf("follower committed %d, leader %d", got, want)
	}
	if !reflect.DeepEqual(collect(t, follower, 0), collect(t, leader, 0)) {
		t.Fatal("follower records differ from leader")
	}
}

// TestReplicateFollowerSurvivesReopen: a follower that ingested via
// both paths recovers its state from disk exactly (the ingested bytes
// are ordinary segments to Open).
func TestReplicateFollowerSurvivesReopen(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 512
	leader := openLog(t, t.TempDir(), cfg)
	fillLeader(t, leader, 120)
	fdir := t.TempDir()
	follower := openLog(t, fdir, cfg)
	replicate(t, leader, follower)
	want := collect(t, follower, 0)
	next := follower.NextOffset()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	re := openLog(t, fdir, cfg)
	if re.NextOffset() != next {
		t.Fatalf("reopened next %d, want %d", re.NextOffset(), next)
	}
	if !reflect.DeepEqual(collect(t, re, 0), want) {
		t.Fatal("records changed across reopen")
	}
}

// TestIngestBatchRejectsGapAndGarbage: a batch whose base is not the
// follower's next offset, or whose bytes are corrupt, is refused
// without advancing anything.
func TestIngestBatchRejectsGapAndGarbage(t *testing.T) {
	follower := openLog(t, t.TempDir(), fastCfg())
	good := appendBatch(nil, 0, [][]byte{[]byte("a"), []byte("b")})
	if _, err := follower.IngestBatch(good); err != nil {
		t.Fatal(err)
	}
	gap := appendBatch(nil, 5, [][]byte{[]byte("x")})
	if _, err := follower.IngestBatch(gap); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap batch: err = %v, want ErrCorrupt", err)
	}
	bad := appendBatch(nil, 2, [][]byte{[]byte("y")})
	bad[len(bad)-1] ^= 0xFF
	if _, err := follower.IngestBatch(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt batch: err = %v, want ErrCorrupt", err)
	}
	if follower.NextOffset() != 2 {
		t.Fatalf("rejected ingests advanced next to %d", follower.NextOffset())
	}
}

// TestReadBatchesInsideBatchRejected: a resume position inside a batch
// is not replicable (the follower always sits on a batch boundary).
func TestReadBatchesInsideBatchRejected(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	// One batch of 3: offsets 0..2 share a batch; 1 is inside it.
	raw := appendBatch(nil, 0, [][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if _, err := l.IngestBatch(raw); err != nil {
		t.Fatal(err)
	}
	tail, err := l.ReplicaTail(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if tail.Next(math.MaxUint64) {
		t.Fatalf("shipped batch [%d,%d) for a start inside it", tail.Base(), tail.NextOffset())
	}
	if err := tail.Err(); !errors.Is(err, ErrNotReplicable) {
		t.Fatalf("err = %v, want ErrNotReplicable", err)
	}
}

// TestReplicaTailStartOutOfRange: a start below the retained first
// offset or beyond the committed watermark is not replicable either.
func TestReplicaTailStartOutOfRange(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 256
	cfg.RetainBytes = 1024
	l := openLog(t, t.TempDir(), cfg)
	fillLeader(t, l, 400)
	lo, committed := l.FirstOffset(), l.Committed()
	if lo == 0 {
		t.Fatal("retention never kicked in; test needs a trimmed log")
	}
	for _, from := range []uint64{0, lo - 1, committed + 1} {
		if _, err := l.ReplicaTail(from); !errors.Is(err, ErrNotReplicable) {
			t.Errorf("ReplicaTail(%d) with retained [%d,%d): err = %v, want ErrNotReplicable", from, lo, committed, err)
		}
	}
	for _, from := range []uint64{lo, committed} {
		tail, err := l.ReplicaTail(from)
		if err != nil {
			t.Fatalf("ReplicaTail(%d): %v", from, err)
		}
		tail.Close()
	}
}

// TestResetToBootstrapsPastRetention: a pristine follower repositions
// to the leader's first retained offset, then replicates normally.
func TestResetToBootstrapsPastRetention(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 256
	cfg.RetainBytes = 1024
	leader := openLog(t, t.TempDir(), cfg)
	fillLeader(t, leader, 400)
	lo := leader.FirstOffset()
	if lo == 0 {
		t.Fatal("retention never kicked in; test needs a trimmed leader")
	}

	follower := openLog(t, t.TempDir(), fastCfg())
	if err := follower.ResetTo(lo); err != nil {
		t.Fatal(err)
	}
	if follower.NextOffset() != lo {
		t.Fatalf("next = %d, want %d", follower.NextOffset(), lo)
	}
	replicate(t, leader, follower)
	if !reflect.DeepEqual(collect(t, follower, lo), collect(t, leader, lo)) {
		t.Fatal("follower records differ from leader after bootstrap")
	}
	// Reset after data exists must refuse.
	if err := follower.ResetTo(0); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("ResetTo on non-empty log: err = %v, want ErrNotEmpty", err)
	}
}

// TestRetentionClampedByReplica: byte retention that would delete
// segments the attached follower has not ingested keeps them until the
// replicated watermark advances past.
func TestRetentionClampedByReplica(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 256
	cfg.RetainBytes = 512
	l := openLog(t, t.TempDir(), cfg)
	l.AttachReplica(0)
	fillLeader(t, l, 300)
	if got := l.FirstOffset(); got != 0 {
		t.Fatalf("retention deleted past an attached replica at 0: first = %d", got)
	}
	// Watermark advance unclamps: next rotation may delete again.
	l.SetReplicated(l.Committed())
	fillLeader(t, l, 300)
	if got := l.FirstOffset(); got == 0 {
		t.Fatal("retention never resumed after the watermark advanced")
	}
	// Detach removes the clamp entirely.
	l.DetachReplica()
	fillLeader(t, l, 100)
}

// TestRetentionClampedByConsumerFloor: the RetainFloor callback holds
// segments a slow registered consumer still needs.
func TestRetentionClampedByConsumerFloor(t *testing.T) {
	var mu sync.Mutex
	floor := uint64(0)
	cfg := fastCfg()
	cfg.SegmentBytes = 256
	cfg.RetainBytes = 512
	cfg.RetainFloor = func() (uint64, bool) {
		mu.Lock()
		defer mu.Unlock()
		return floor, true
	}
	l := openLog(t, t.TempDir(), cfg)
	fillLeader(t, l, 300)
	if got := l.FirstOffset(); got != 0 {
		t.Fatalf("retention deleted past consumer floor 0: first = %d", got)
	}
	mu.Lock()
	floor = l.Committed()
	mu.Unlock()
	fillLeader(t, l, 300)
	if got := l.FirstOffset(); got == 0 {
		t.Fatal("retention never resumed after the consumer floor advanced")
	}
}

// TestWaitReplicated: blocks until the watermark covers the offset,
// returns immediately when no replica is attached (degraded mode), and
// unblocks on detach.
func TestWaitReplicated(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	// No replica: no wait.
	done := make(chan error, 1)
	go func() { done <- l.WaitReplicated(10, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitReplicated blocked with no replica attached")
	}

	l.AttachReplica(0)
	go func() { done <- l.WaitReplicated(4, nil) }()
	select {
	case <-done:
		t.Fatal("WaitReplicated returned before the watermark covered 4")
	case <-time.After(20 * time.Millisecond):
	}
	l.SetReplicated(5)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitReplicated ignored the watermark advance")
	}

	// Detach releases waiters (degrade, not deadlock).
	l.AttachReplica(5)
	go func() { done <- l.WaitReplicated(100, nil) }()
	time.Sleep(10 * time.Millisecond)
	l.DetachReplica()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitReplicated did not release on detach")
	}
}

// TestAttachReplicaLowersWatermark: a follower re-attaching after a
// crash-truncation legitimately attaches below the old watermark, and
// the watermark must follow it down (retention safety).
func TestAttachReplicaLowersWatermark(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	l.AttachReplica(100)
	if got, _ := l.Replicated(); got != 100 {
		t.Fatalf("replicated = %d, want 100", got)
	}
	l.SetReplicated(50) // stale ack within a session: ignored
	if got, _ := l.Replicated(); got != 100 {
		t.Fatalf("SetReplicated regressed the watermark to %d", got)
	}
	l.AttachReplica(40) // re-attach after truncation: honored
	if got, _ := l.Replicated(); got != 40 {
		t.Fatalf("re-attach did not lower the watermark: %d", got)
	}
}

// TestWaitCommittedCancellable: WaitCommitted parks until data commits
// or the canceller flips and Wakes.
func TestWaitCommittedCancellable(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	type res struct {
		c   uint64
		err error
	}
	done := make(chan res, 1)
	go func() {
		c, err := l.WaitCommitted(0, nil)
		done <- res{c, err}
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || r.c != 1 {
			t.Fatalf("WaitCommitted = %d, %v", r.c, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitCommitted missed the commit")
	}

	var stop sync.Mutex
	stopped := false
	cancelled := func() bool { stop.Lock(); defer stop.Unlock(); return stopped }
	go func() {
		c, err := l.WaitCommitted(1000, cancelled)
		done <- res{c, err}
	}()
	time.Sleep(10 * time.Millisecond)
	stop.Lock()
	stopped = true
	stop.Unlock()
	l.Wake()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitCommitted ignored cancellation")
	}
}

// TestInstallSegmentCrashLeavesRecoverableLog: a failpoint "crash" at
// each install stage leaves a directory Open recovers to a consistent
// prefix (never a gap, never fabricated records).
func TestInstallSegmentCrashLeavesRecoverableLog(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 512
	leader := openLog(t, t.TempDir(), cfg)
	fillLeader(t, leader, 120)
	segs := leader.SealedSegments()
	if len(segs) == 0 {
		t.Fatal("leader has no sealed segments")
	}
	data, info, err := leader.ReadSegment(segs[0].Base)
	if err != nil {
		t.Fatal(err)
	}

	for _, point := range []Failpoint{FpWrite, FpPreSync, FpPostSync} {
		point := point
		t.Run(point.String(), func(t *testing.T) {
			fdir := t.TempDir()
			boom := errors.New("injected crash")
			fcfg := fastCfg()
			fcfg.Failpoint = func(fi FailpointInfo) error {
				if fi.Point == point {
					return boom
				}
				return nil
			}
			f, err := Open(fdir, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.InstallSegment(data); !errors.Is(err, boom) {
				t.Fatalf("InstallSegment = %v, want injected crash", err)
			}
			f.Close()

			re := openLog(t, fdir, fastCfg())
			next := re.NextOffset()
			if next != 0 && next != info.End {
				t.Fatalf("recovered next = %d, want 0 or %d", next, info.End)
			}
			if next == info.End {
				if got := len(collect(t, re, 0)); got != int(info.End-info.Base) {
					t.Fatalf("recovered %d records, want %d", got, info.End-info.Base)
				}
			}
		})
	}
}

package commitlog

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/streammatch/apcm/metrics"
)

// shippedBatch is one batch as a cursor yielded it.
type shippedBatch struct {
	base uint64
	raw  []byte
}

// drainTail reads every batch the cursor has committed for it.
func drainTail(t *testing.T, tail *Tail) []shippedBatch {
	t.Helper()
	var out []shippedBatch
	for tail.Next(math.MaxUint64) {
		out = append(out, shippedBatch{tail.Base(), append([]byte(nil), tail.RawBatch()...)})
	}
	if err := tail.Err(); err != nil {
		t.Fatalf("tail: %v", err)
	}
	return out
}

// scanDir is the reference reader: every segment file in dir read whole
// and scanned from byte 0, oldest segment first.
func scanDir(t *testing.T, dir string) []shippedBatch {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []shippedBatch
	for _, e := range entries { // ReadDir sorts by name: zero-padded bases
		if !strings.HasSuffix(e.Name(), segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(e.Name(), segSuffix), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScanner(data, base)
		for sc.Next() {
			out = append(out, shippedBatch{sc.Base(), append([]byte(nil), sc.RawBatch()...)})
		}
		if sc.Err() != nil {
			t.Fatalf("reference scan of %s: %v", e.Name(), sc.Err())
		}
	}
	return out
}

// segFiles maps each segment file name in dir to its bytes.
func segFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segSuffix) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = data
		}
	}
	return out
}

// tailScript is a random interleaving of appends and cursor reads
// against a log whose small segment cap forces frequent rotations.
type tailScript struct {
	segBytes int64
	ops      [][][]byte // nil: read every cursor; else append these records concurrently
	startAt  int        // op index at which the mid-stream cursors open
	midSkew  uint64     // record cursor start: committed at startAt minus this
}

func (tailScript) Generate(r *rand.Rand, size int) reflect.Value {
	s := tailScript{segBytes: int64(128 + r.Intn(896))}
	for n := 10 + r.Intn(size+10); len(s.ops) < n; {
		if r.Intn(3) == 0 {
			s.ops = append(s.ops, nil)
			continue
		}
		recs := make([][]byte, 1+r.Intn(4)) // concurrent appends share batches
		for i := range recs {
			recs[i] = make([]byte, r.Intn(200))
			r.Read(recs[i])
		}
		s.ops = append(s.ops, recs)
	}
	s.startAt = r.Intn(len(s.ops))
	s.midSkew = uint64(r.Intn(4))
	return reflect.ValueOf(s)
}

// TestQuickTailDifferential runs random scripts and checks each
// cursor against the reference whole-file scan: a replication cursor
// from offset 0 and one opened mid-stream at a commit boundary yield
// exactly the reference batch sequence from their start, a follower
// fed only by the first is byte-identical to the leader, and a record
// cursor opened at an arbitrary offset yields exactly the reference
// records from there. Rotations between two reads must lose nothing;
// the test also checks that the scripts produced such rotations.
func TestQuickTailDifferential(t *testing.T) {
	rotatedBetweenReads := 0
	check := func(s tailScript) bool {
		cfg := Config{SegmentBytes: s.segBytes, FlushInterval: 100 * time.Microsecond, NoFsync: true}
		leaderDir, followerDir := t.TempDir(), t.TempDir()
		leader := openLog(t, leaderDir, cfg)
		follower := openLog(t, followerDir, cfg)
		full, err := leader.ReplicaTail(0)
		if err != nil {
			t.Fatal(err)
		}
		defer full.Close()
		var mid, rec *Tail
		var midStart, recStart uint64
		var fromFull, fromMid []shippedBatch
		recs := make(map[uint64][]byte)
		read := func() {
			for _, b := range drainTail(t, full) {
				if _, err := follower.IngestBatch(b.raw); err != nil {
					t.Fatalf("follower ingest at %d: %v", b.base, err)
				}
				fromFull = append(fromFull, b)
			}
			if mid != nil {
				fromMid = append(fromMid, drainTail(t, mid)...)
				for rec.Next(math.MaxUint64) {
					for i, r := range rec.Records() {
						if off := rec.Base() + uint64(i); off >= recStart {
							recs[off] = append([]byte(nil), r...)
						}
					}
				}
				if err := rec.Err(); err != nil {
					t.Fatalf("record tail: %v", err)
				}
			}
		}
		segsAtRead := leader.Segments()
		for i, op := range s.ops {
			if i == s.startAt {
				midStart = leader.Committed()
				if mid, err = leader.ReplicaTail(midStart); err != nil {
					t.Fatal(err)
				}
				defer mid.Close()
				recStart = midStart - min(midStart, s.midSkew)
				rec = leader.Tail(recStart)
				defer rec.Close()
			}
			if op == nil {
				if leader.Segments() > segsAtRead {
					rotatedBetweenReads++
				}
				read()
				segsAtRead = leader.Segments()
				continue
			}
			var wg sync.WaitGroup
			for _, r := range op {
				wg.Add(1)
				go func(r []byte) {
					defer wg.Done()
					if _, err := leader.Append(r); err != nil {
						t.Error(err)
					}
				}(r)
			}
			wg.Wait()
		}
		read()

		want := scanDir(t, leaderDir)
		if !reflect.DeepEqual(fromFull, want) {
			t.Logf("cursor from 0 yielded %d batches, reference scan %d", len(fromFull), len(want))
			return false
		}
		var wantMid []shippedBatch
		wantRecs := make(map[uint64][]byte)
		for _, b := range want {
			if b.base >= midStart {
				wantMid = append(wantMid, b)
			}
			sc := NewScanner(b.raw, b.base)
			sc.Next()
			for i, r := range sc.Records() {
				if off := b.base + uint64(i); off >= recStart {
					wantRecs[off] = append([]byte(nil), r...)
				}
			}
		}
		if !reflect.DeepEqual(fromMid, wantMid) {
			t.Logf("cursor from %d yielded %d batches, reference scan %d", midStart, len(fromMid), len(wantMid))
			return false
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Logf("record cursor from %d yielded %d records, reference scan %d", recStart, len(recs), len(wantRecs))
			return false
		}
		if got, want := segFiles(t, followerDir), segFiles(t, leaderDir); !reflect.DeepEqual(got, want) {
			t.Logf("follower has %d segment files, leader %d, or their bytes differ", len(got), len(want))
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(quickSeed))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	if rotatedBetweenReads == 0 {
		t.Fatal("no script rotated a segment between two reads; the property went unexercised")
	}
}

// TestTailConcurrentAppends drains a replication cursor into a follower
// while appenders run, the way the broker's sender does, and checks
// the follower ends byte-identical to the leader.
func TestTailConcurrentAppends(t *testing.T) {
	cfg := Config{SegmentBytes: 2 << 10, FlushInterval: 100 * time.Microsecond, NoFsync: true}
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader := openLog(t, leaderDir, cfg)
	follower := openLog(t, followerDir, cfg)
	tail, err := leader.ReplicaTail(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	const writers, per = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := bytes.Repeat([]byte{byte(w)}, 10+w*7)
			for i := 0; i < per; i++ {
				if _, err := leader.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	ship := func() {
		for tail.Next(math.MaxUint64) {
			if _, err := follower.IngestBatch(tail.RawBatch()); err != nil {
				t.Fatalf("ingest at %d: %v", tail.Base(), err)
			}
		}
		if err := tail.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for {
		select {
		case <-done:
			ship()
			if got, want := follower.Committed(), uint64(writers*per); got != want {
				t.Fatalf("follower committed %d, want %d", got, want)
			}
			if leader.Segments() < 3 {
				t.Fatalf("only %d segments; the test needs rotations under the cursor", leader.Segments())
			}
			if !reflect.DeepEqual(segFiles(t, followerDir), segFiles(t, leaderDir)) {
				t.Fatal("follower segment files differ from the leader's")
			}
			return
		default:
			ship()
		}
	}
}

// TestTailReadsEachByteOnce ships batches one at a time, across
// rotations, and checks the log read exactly the shipped bytes: the
// cursor never re-reads what it already returned. (Re-reading the
// active segment per shipped batch, as a whole-file scan does, reads
// Θ(n²) bytes here.)
func TestTailReadsEachByteOnce(t *testing.T) {
	reg := metrics.New()
	cfg := fastCfg()
	cfg.SegmentBytes = 2 << 10
	cfg.Metrics = reg
	leader := openLog(t, t.TempDir(), cfg)
	follower := openLog(t, t.TempDir(), fastCfg())
	tail, err := leader.ReplicaTail(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	shipped := 0
	for i := 0; i < 200; i++ {
		if _, err := leader.Append([]byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		n := 0
		for tail.Next(math.MaxUint64) {
			if _, err := follower.IngestBatch(tail.RawBatch()); err != nil {
				t.Fatal(err)
			}
			shipped += len(tail.RawBatch())
			n++
		}
		if err := tail.Err(); err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("append %d: cursor shipped %d batches, want 1", i, n)
		}
	}
	if leader.Segments() < 3 {
		t.Fatalf("only %d segments; the test needs rotations", leader.Segments())
	}
	read := reg.Counter("apcm_broker_log_read_bytes_total", "").Value()
	flushed := reg.Counter("apcm_broker_log_flushed_bytes_total", "").Value()
	if read != int64(shipped) || flushed != int64(shipped) {
		t.Fatalf("read %d bytes and flushed %d to ship %d", read, flushed, shipped)
	}
}

package commitlog

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func benchLog(b *testing.B, noFsync bool) *Log {
	b.Helper()
	l, err := Open(b.TempDir(), Config{
		SegmentBytes:  64 << 20,
		NoFsync:       noFsync,
		FlushInterval: 500 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	return l
}

// BenchmarkLogAppend measures the single-appender staging+flush path
// with fsync disabled (the CPU cost the 0-alloc gate protects).
func BenchmarkLogAppend(b *testing.B) {
	l := benchLog(b, true)
	rec := make([]byte, 256)
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogAppendParallel exercises group commit: concurrent
// appenders share flushes, so per-append cost drops with parallelism.
func BenchmarkLogAppendParallel(b *testing.B) {
	l := benchLog(b, true)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rec := make([]byte, 256)
		for pb.Next() {
			if _, err := l.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLogAppendFsyncParallel is the durable configuration: every
// commit is fsync'd, and group commit amortizes the fsync across the
// appenders blocked on the same batch.
func BenchmarkLogAppendFsyncParallel(b *testing.B) {
	l := benchLog(b, false)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rec := make([]byte, 256)
		for pb.Next() {
			if _, err := l.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReadTail is the per-batch cost of reading the replication
// tail: each op commits one batch of one 256-byte record (IngestBatch,
// synchronous, no fsync) and reads it back through a cursor positioned
// at the end of an active segment already holding 0, 1 or 4 MiB. The
// cursor reads only the bytes committed since its last read, so the
// cost should not depend on the fill. The op's one allocation is
// IngestBatch's validating scanner; the cursor allocates nothing
// (TestTailZeroAllocs).
func BenchmarkReadTail(b *testing.B) {
	for _, mib := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("fill=%dMiB", mib), func(b *testing.B) {
			l := benchLog(b, true)
			fill := make([][]byte, 256)
			for i := range fill {
				fill[i] = make([]byte, 256)
			}
			var raw []byte
			for written := 0; written < mib<<20; written += len(raw) {
				raw = appendBatch(raw[:0], l.NextOffset(), fill)
				if _, err := l.IngestBatch(raw); err != nil {
					b.Fatal(err)
				}
			}
			tail, err := l.ReplicaTail(l.Committed())
			if err != nil {
				b.Fatal(err)
			}
			defer tail.Close()
			if tail.Next(math.MaxUint64) || tail.Err() != nil { // position: one read of the fill
				b.Fatalf("positioning at the end yielded a batch (err %v)", tail.Err())
			}
			one := fill[:1]
			raw = appendBatch(raw[:0], 0, one)
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				raw = appendBatch(raw[:0], l.NextOffset(), one)
				if _, err := l.IngestBatch(raw); err != nil {
					b.Fatal(err)
				}
				if !tail.Next(math.MaxUint64) {
					b.Fatalf("no batch after a commit: %v", tail.Err())
				}
			}
		})
	}
}

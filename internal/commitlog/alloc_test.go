package commitlog

import (
	"math"
	"testing"
	"time"
)

// allocTolerance matches the repo-root alloc gates: absorbs a rare
// stray allocation (timer refresh, map growth in the runtime) without
// letting a real per-op allocation through.
const allocTolerance = 0.5

// TestAppendZeroAllocs gates the //apcm:hotpath append path at zero
// allocations per record in steady state: the staging buffer is
// preallocated at Open, records are staged with AppendUvarint+append
// into fixed capacity, and the flush cycle recycles the double buffer.
func TestAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates only hold on plain builds")
	}
	dir := t.TempDir()
	l, err := Open(dir, Config{
		NoFsync:       true, // measuring the CPU path, not the disk
		FlushInterval: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := make([]byte, 256)
	for i := 0; i < 64; i++ { // warm: segment file, flusher, buffers
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(400, func() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if avg > allocTolerance {
		t.Fatalf("Append allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestTailZeroAllocs gates the //apcm:hotpath cursor read at zero
// allocations per newly committed batch in steady state: the segment's
// file handle stays open, the read buffer and the scanner's record
// slice are reused, and the extent snapshot copies a struct.
func TestTailZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates only hold on plain builds")
	}
	l, err := Open(t.TempDir(), Config{
		NoFsync:       true,
		FlushInterval: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tail, err := l.ReplicaTail(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	rec := make([]byte, 256)
	step := func() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if !tail.Next(math.MaxUint64) {
			t.Fatalf("no batch after a commit: %v", tail.Err())
		}
		if tail.Next(math.MaxUint64) {
			t.Fatal("a second batch from one append")
		}
	}
	for i := 0; i < 64; i++ { // warm: file handle, buffer, record slice
		step()
	}
	avg := testing.AllocsPerRun(400, step)
	if avg > allocTolerance {
		t.Fatalf("Tail.Next allocates %.2f/op in steady state, want 0", avg)
	}
}

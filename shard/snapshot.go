package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sync"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/trace"
)

// Persistence. A group snapshots to the same flat trace format as a
// single engine — one file, all shards concatenated — so checkpoints
// move freely between sharded and unsharded deployments (and between
// groups of different shard counts or strategies: the load side
// re-routes every subscription under the loading group's own
// partitioning).

// SaveSubscriptions writes every live subscription across all shards to
// w as a binary trace, shard by shard. The group's write lock is held
// for the whole walk, so the snapshot is a consistent cut: no Subscribe
// or Unsubscribe lands between the declared record count and the
// records.
func (g *Group) SaveSubscriptions(w io.Writer) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return apcm.ErrClosed
	}
	total := 0
	for _, e := range g.shards {
		total += e.Len()
	}
	tw, err := trace.NewWriter(w, trace.KindExpressions, total)
	if err != nil {
		return err
	}
	for _, e := range g.shards {
		var werr error
		e.ForEachSubscription(func(x *expr.Expression) bool {
			werr = tw.WriteExpression(x)
			return werr == nil
		})
		if werr != nil {
			return werr
		}
	}
	return tw.Close()
}

// CheckpointSubscriptions persists the live subscription set of every
// shard to path, atomically (see apcm.WriteCheckpoint): a crash at any
// point leaves either the previous checkpoint or the new one, never a
// truncated or partial file.
func (g *Group) CheckpointSubscriptions(path string) error {
	return apcm.WriteCheckpoint(path, g.SaveSubscriptions)
}

// RestoreSubscriptions loads the checkpoint at path into the group. A
// missing file is not an error — a broker booting for the first time
// has no checkpoint yet — and restores nothing. It returns the number
// of subscriptions restored.
func (g *Group) RestoreSubscriptions(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	return g.LoadSubscriptions(f)
}

// Cold-start load grain: records are routed in raw-byte chunks and
// subscribed in expression chunks of the same size, one write lock and
// one compiled-cluster batch append per chunk.
const (
	loadChunkRecords = 512
	loadChunkBytes   = 64 << 10
)

// rawChunk is a batch of undecoded records on the router→shard hop:
// buf holds the concatenated payloads, ends the cumulative end offset
// of each record within buf.
type rawChunk struct {
	buf  []byte
	ends []int
}

// LoadSubscriptions reads a trace written by SaveSubscriptions (either
// flavour: group or single engine, or by cmd/apcm-gen) and subscribes
// every expression on its owning shard. The router never decodes: it
// peeks each record's leading uvarints (the id, and under AttrRange the
// first predicate's attribute — predicates are stored attribute-sorted,
// so the first is the routing minimum) and forwards raw byte chunks to
// per-shard loader goroutines, which decode through private slabs (see
// expr.SlabDecoder) and subscribe in bulk. Decode cost therefore
// parallelises across shards along with insertion, which is where the
// multi-million-subscription cold-start cost goes on multi-core hosts
// (see experiment E20, the cold-start restore); on a single-core host the load runs
// inline with the same chunked bulk inserts. The id allocator is
// advanced past the largest loaded id so NewID never collides with a
// restored subscription, also on a partial load. It returns the number
// of subscriptions loaded; on error, subscriptions loaded before the
// failure remain subscribed. A record that fails to decode stops
// loading on its owning shard (and surfaces as the returned error);
// the other shards finish their share of the trace.
func (g *Group) LoadSubscriptions(r io.Reader) (int, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		return 0, apcm.ErrClosed
	}
	tr, err := trace.NewReader(r)
	if err != nil {
		return 0, err
	}
	if tr.Kind() != trace.KindExpressions {
		return 0, fmt.Errorf("shard: trace holds %q records, want expressions", tr.Kind())
	}
	if runtime.GOMAXPROCS(0) == 1 || len(g.shards) == 1 {
		return g.loadInline(tr)
	}
	return g.loadParallel(tr)
}

// loadInline is the single-core restore: decode every record on the
// calling goroutine and subscribe per-shard chunks in bulk.
func (g *Group) loadInline(tr *trace.Reader) (int, error) {
	counts := make([]int, len(g.shards))
	errs := make([]error, len(g.shards))
	chunks := make([][]*expr.Expression, len(g.shards))
	flush := func(s int) {
		if errs[s] != nil || len(chunks[s]) == 0 {
			chunks[s] = chunks[s][:0]
			return
		}
		k, err := g.shards[s].SubscribeBulk(chunks[s])
		counts[s] += k
		if err != nil {
			errs[s] = err
		}
		chunks[s] = chunks[s][:0]
	}
	var dec expr.SlabDecoder
	var maxID expr.ID
	var rerr error
	for {
		x, err := tr.ReadExpressionSlab(&dec)
		if err == io.EOF {
			break
		}
		if err != nil {
			rerr = err
			break
		}
		if x.ID > maxID {
			maxID = x.ID
		}
		s := g.shardOf(x)
		if errs[s] != nil {
			continue
		}
		chunks[s] = append(chunks[s], x)
		if len(chunks[s]) >= loadChunkRecords {
			flush(s)
		}
	}
	loaded := 0
	for s := range chunks {
		flush(s)
		loaded += counts[s]
		if rerr == nil && errs[s] != nil {
			rerr = errs[s]
		}
	}
	g.advanceID(maxID)
	return loaded, rerr
}

// peekRoute routes a raw expression record without decoding it. ok is
// false when the leading fields are unparseable — the record is corrupt
// (the full decode reads the same prefix), so the caller hands it to
// shard 0 whose decoder reports the error.
func (g *Group) peekRoute(rec []byte) (id expr.ID, shard int, ok bool) {
	v, n := binary.Uvarint(rec)
	if n <= 0 {
		return 0, 0, false
	}
	id = expr.ID(v)
	if g.opts.Strategy != AttrRange {
		return id, g.idShard(id), true
	}
	off := n
	_, k := binary.Uvarint(rec[off:]) // predicate count
	if k <= 0 {
		return id, 0, false
	}
	off += k
	attr, k := binary.Uvarint(rec[off:])
	if k <= 0 {
		return id, 0, false
	}
	return id, g.attrShard(expr.AttrID(attr)), true
}

// loadParallel is the multi-core restore: the calling goroutine routes
// raw record chunks, one loader goroutine per shard decodes and
// subscribes them.
func (g *Group) loadParallel(tr *trace.Reader) (int, error) {
	n := len(g.shards)
	chans := make([]chan rawChunk, n)
	counts := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := range chans {
		chans[s] = make(chan rawChunk, 4)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var dec expr.SlabDecoder
			chunk := make([]*expr.Expression, 0, loadChunkRecords)
			flush := func() {
				if errs[s] != nil || len(chunk) == 0 {
					chunk = chunk[:0]
					return
				}
				k, err := g.shards[s].SubscribeBulk(chunk)
				counts[s] += k
				if err != nil {
					errs[s] = err
				}
				chunk = chunk[:0]
			}
			for c := range chans[s] {
				if errs[s] != nil {
					continue // drain after failure so the router never blocks
				}
				prev := 0
				for _, end := range c.ends {
					rec := c.buf[prev:end]
					prev = end
					x, k, err := dec.Decode(rec)
					if err != nil {
						flush()
						errs[s] = fmt.Errorf("trace: corrupt record: %w", err)
						break
					}
					if k != len(rec) {
						flush()
						errs[s] = fmt.Errorf("trace: record decoded %d of %d bytes", k, len(rec))
						break
					}
					chunk = append(chunk, x)
					if len(chunk) == loadChunkRecords {
						flush()
						if errs[s] != nil {
							break
						}
					}
				}
			}
			flush()
		}(s)
	}

	bufs := make([][]byte, n)
	endss := make([][]int, n)
	dispatch := func(s int) {
		if len(endss[s]) == 0 {
			return
		}
		chans[s] <- rawChunk{buf: bufs[s], ends: endss[s]}
		bufs[s] = make([]byte, 0, loadChunkBytes)
		endss[s] = nil
	}
	var maxID expr.ID
	var rerr error
	for {
		// Route into shard 0's accumulator by default; peekRoute moves
		// the record to its owner on success.
		s := 0
		head := len(bufs[0])
		buf, err := tr.ReadRawRecord(bufs[0])
		if err == io.EOF {
			break
		}
		if err != nil {
			rerr = err
			break
		}
		bufs[0] = buf
		rec := buf[head:]
		id, owner, ok := g.peekRoute(rec)
		if ok {
			if id > maxID {
				maxID = id
			}
			if owner != 0 {
				bufs[owner] = append(bufs[owner], rec...)
				bufs[0] = bufs[0][:head]
				s = owner
			}
		}
		endss[s] = append(endss[s], len(bufs[s]))
		if len(endss[s]) >= loadChunkRecords || len(bufs[s]) >= loadChunkBytes {
			dispatch(s)
		}
		if !ok {
			// Corrupt leading fields: shard 0's decoder owns the error;
			// stop reading, as the sequential loader would.
			break
		}
	}
	for s := range chans {
		dispatch(s)
		close(chans[s])
	}
	wg.Wait()

	loaded := 0
	for s := range counts {
		loaded += counts[s]
		if rerr == nil && errs[s] != nil {
			rerr = errs[s]
		}
	}
	g.advanceID(maxID)
	return loaded, rerr
}

package bench

import (
	"bytes"
	"fmt"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/shard"
	"github.com/streammatch/apcm/trace"
	"github.com/streammatch/apcm/workload"
)

// E20: cold-start restore. At millions of subscriptions the restart
// path — LoadSubscriptions + compile — dominates failover downtime
// (DESIGN §11.3), so this experiment measures restore wall-clock and
// throughput for one snapshot replayed through the three restore
// paths: the plain one-Subscribe-per-record loop kept as the baseline
// (LoadSubscriptionsSequential), the optimized engine restore (slab
// decode + bulk insert, pipelined across decode workers when cores
// allow), and a 4-shard group restoring shards in parallel into
// quarter-size trees. Each restore is one timed operation, so a point's
// wall time is the mean over its repetitions.

func init() {
	register(e20())
}

func e20() Experiment {
	return Experiment{
		ID:     "E20",
		Title:  "Cold-start restore: sequential vs optimized vs sharded",
		Expect: "the optimized restore holds a constant gap over the sequential loop (fewer allocations, batch inserts); the group widens with scale as per-shard trees stay small (ours: beyond-paper cold-start floor)",
		Run: func(cfg Config) error {
			cfg.sanitize()
			// At -scale 50 the size axis is 1M, 2.5M and 5M
			// subscriptions — the regimes where restart downtime is
			// measured in seconds.
			sizes := []int{
				cfg.n(20000, 600),
				cfg.n(50000, 800),
				cfg.n(100000, 1000),
			}
			p := baseParams(cfg.Seed)
			p.PlantPoolSize = 65536

			t := NewTable("E20: cold-start restore, snapshot → ready engine",
				"subs", "path", "wall s", "subs/s", "vs sequential")
			for _, nsubs := range sizes {
				g, err := workload.New(p)
				if err != nil {
					return err
				}
				var buf bytes.Buffer
				tw, err := trace.NewWriter(&buf, trace.KindExpressions, nsubs)
				if err != nil {
					return err
				}
				for i := 0; i < nsubs; i++ {
					if err := tw.WriteExpression(g.Expression()); err != nil {
						return err
					}
				}
				if err := tw.Close(); err != nil {
					return err
				}
				data := buf.Bytes()

				paths := []struct {
					name string
					load func([]byte) (int, error)
				}{
					{"sequential", func(data []byte) (int, error) {
						e, err := apcm.New(apcm.Options{Workers: cfg.Workers, Metrics: cfg.Metrics})
						if err != nil {
							return 0, err
						}
						defer e.Close()
						return e.LoadSubscriptionsSequential(bytes.NewReader(data))
					}},
					{"engine", func(data []byte) (int, error) {
						e, err := apcm.New(apcm.Options{Workers: cfg.Workers, Metrics: cfg.Metrics})
						if err != nil {
							return 0, err
						}
						defer e.Close()
						return e.LoadSubscriptions(bytes.NewReader(data))
					}},
					{"group=4", func(data []byte) (int, error) {
						grp, err := shard.New(shard.Options{Shards: 4, Workers: cfg.Workers, Metrics: cfg.Metrics})
						if err != nil {
							return 0, err
						}
						defer grp.Close()
						return grp.LoadSubscriptions(bytes.NewReader(data))
					}},
				}
				var base float64
				for _, path := range paths {
					r, err := rate(cfg, fmt.Sprintf("subs=%d/%s", nsubs, path.name), "subs/s", func() (int, error) {
						n, err := path.load(data)
						if err == nil && n != nsubs {
							err = fmt.Errorf("restored %d of %d subscriptions", n, nsubs)
						}
						return n, err
					})
					if err != nil {
						return fmt.Errorf("E20 %d subs via %s: %w", nsubs, path.name, err)
					}
					if path.name == "sequential" {
						base = r
					}
					t.AddRow(fmt.Sprintf("%d", nsubs), path.name,
						fmt.Sprintf("%.2f", safeDiv(float64(nsubs), r)), FormatRate(r),
						fmt.Sprintf("%.2fx", safeDiv(r, base)))
				}
			}
			emit(cfg, t)
			return nil
		},
	}
}

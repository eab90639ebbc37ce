package bench

import (
	"fmt"

	"github.com/streammatch/apcm/shard"
	"github.com/streammatch/apcm/workload"
)

// E19: the sharded matching tier (shard.Group) swept over subscription
// count × shard count. This is the scaling experiment behind DESIGN.md
// §10 and the README's scaling section; BENCH_pr7.json holds a
// committed run. Every point builds a group, even at one shard: a
// 1-shard group delegates straight to its engine, so the baseline pays
// the facade too and the sweep isolates sharding, not wrapper overhead.

func init() {
	register(e19())
}

// defaultShardCounts is the E19 shard-count axis when Config.Shards is
// unset.
var defaultShardCounts = []int{1, 2, 4, 8, 16}

// buildGroup streams nsubs workload expressions into a fresh group and
// precompiles it. Subscriptions are generated one at a time — never
// materialised as a slice — so the build's transient memory stays flat
// at multi-million counts (the index itself is the footprint).
func buildGroup(cfg Config, shards, nsubs int, p workload.Params) (*shard.Group, *workload.Generator, error) {
	g, err := workload.New(p)
	if err != nil {
		return nil, nil, err
	}
	grp, err := shard.New(shard.Options{Shards: shards, Workers: cfg.Workers, Metrics: cfg.Metrics})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < nsubs; i++ {
		if err := grp.Subscribe(g.Expression()); err != nil {
			grp.Close()
			return nil, nil, err
		}
	}
	grp.Prepare()
	return grp, g, nil
}

// ---------------------------------------------------------------- E19

func e19() Experiment {
	return Experiment{
		ID:     "E19",
		Title:  "Sharded matching tier: subscriptions × shard count",
		Expect: "multi-shard groups overtake the 1-shard baseline as subscription count grows (per-shard indexes shrink and fan-out parallelises across cores); on a single core the win collapses to index-size effects and fan-out overhead (ours: beyond-paper scaling tier)",
		Run: func(cfg Config) error {
			cfg.sanitize()
			shardCounts := cfg.Shards
			if len(shardCounts) == 0 {
				shardCounts = defaultShardCounts
			}
			// At -scale 50 the size axis reaches the target sweep:
			// 100k, 500k, 1M, 2.5M and 5M subscriptions.
			sizes := []int{
				cfg.n(2000, 200),
				cfg.n(10000, 400),
				cfg.n(20000, 600),
				cfg.n(50000, 800),
				cfg.n(100000, 1000),
			}
			p := baseParams(cfg.Seed)
			// Bound the plant reservoir so event generation is O(1) in
			// subscription count (same default as cmd/apcm-gen).
			p.PlantPoolSize = 65536

			t := NewTable("E19: shard.Group match throughput, subscriptions × shards",
				"subs", "shards", "events/s", "p99 µs", "vs 1 shard", "imbalance")
			for _, nsubs := range sizes {
				nev := cfg.n(2000, 200)
				if nev > nsubs {
					nev = nsubs
				}
				var base float64
				for _, sc := range shardCounts {
					grp, g, err := buildGroup(cfg, sc, nsubs, p)
					if err != nil {
						return fmt.Errorf("E19 %d subs × %d shards: %w", nsubs, sc, err)
					}
					events := g.Events(nev)
					name := fmt.Sprintf("subs=%d/shards=%d/", nsubs, sc)
					rate := matchRate(cfg, name+"throughput", grp, events, 256)
					p99 := matchLatency(cfg, name+"latency", grp, events).Quantile(0.99)
					imb := grp.Stats().Imbalance
					grp.Close()
					if sc == shardCounts[0] {
						base = rate
					}
					speedup := "-"
					if base > 0 {
						speedup = fmt.Sprintf("%.2fx", rate/base)
					}
					t.AddRow(fmt.Sprintf("%d", nsubs), fmt.Sprintf("%d", sc),
						FormatRate(rate), fmt.Sprintf("%.1f", p99/1e3),
						speedup, fmt.Sprintf("%.2f", imb))
				}
			}
			emit(cfg, t)
			return nil
		},
	}
}

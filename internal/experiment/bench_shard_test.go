package experiment

import (
	"fmt"
	"testing"

	"innercircle/internal/scenario"
)

// BenchmarkShardedField runs one full sensor-field replica at the scaling
// sizes, on one kernel and sharded. It is the only harness above the 4000
// nodes of scripts/bench's field_scale, and what a re-run of the 40k and
// 100k rows has to use. What is known (CHANGES.md, PR 16 and PR 17; 2-vCPU
// shared VM): on one core a single kernel is the faster configuration at
// 10k nodes (6.3/6.6 s against 7.6/7.7 s on 6 shards, two pairs); with a
// second P a goroutine per shard won at 10k/6 shards and lost at 1k/4
// shards, six pairs each; 40k and 100k have not been run since the radio
// got one transmission path, and nothing here is a parallel speed-up.
// PR 22's one-P rows, the slot loop against the executor it replaced:
// 229/279/268 ms against 247/244/223 ms at 1k/4, 6.35/6.29/6.27 s against
// 7.13/6.06/6.40 s at 10k/6 — inside the spread at both sizes.
//
// The shard count per size is the largest probed count that executes
// tie-free at the benchmark seed. Cross-shard timestamp ties abort and
// rerun on one kernel — deterministic per seed, and not rare: 18 of 100
// field_scale replicas (4000 nodes, 4 shards) trip — so the assertion
// below keeps a tie from silently mislabeling a single-kernel run.
//
// Each iteration builds and runs a whole replica, so memory benchmarks
// are dominated by network construction; the interesting number is ns/op.
// Under -short only nodes=1000 runs (a fraction of a second per row; the
// next size takes ten), which is what CI's benchmark step relies on.
func BenchmarkShardedField(b *testing.B) {
	for _, p := range []struct{ nodes, shards int }{
		{1000, 4}, {10000, 6}, {40000, 8}, {100000, 8},
	} {
		n := p.nodes
		if testing.Short() && n > 1000 {
			break
		}
		for _, shards := range []int{1, p.shards} {
			b.Run(fmt.Sprintf("nodes=%d/shards=%d", n, shards), func(b *testing.B) {
				cfg := ScaledSensorConfig(n)
				cfg.Seed = 1
				cfg.Shards = shards
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					spec, err := sensorSpec(cfg)
					if err != nil {
						b.Fatal(err)
					}
					res, err := scenario.Run(spec)
					if err != nil {
						b.Fatal(err)
					}
					if res.Shards != shards {
						b.Fatalf("replica executed with %d shards, want %d (fallback or tie rerun — numbers would be mislabeled)", res.Shards, shards)
					}
				}
			})
		}
	}
}

package experiment

import (
	"fmt"
	"runtime"
	"testing"

	"innercircle/internal/scenario"
)

// BenchmarkShardedField runs one full sensor-field replica at the scaling
// sizes, on one kernel and sharded. It is the only harness above the 4000
// nodes of scripts/bench's field_scale. What is known (2-vCPU shared VM;
// nothing here is a parallel speed-up): with a second P a goroutine per
// shard won at 10k/6 shards and lost at 1k/4 shards, six pairs each; at
// GOMAXPROCS=2 one kernel beat 2 and 4 shards on 4k-node fields (three
// seeds, 0.58–0.82× the time). At one P, S shards taking turns on one
// executor slot against one kernel, one run each (seed 1): 40k/8 shards
// 39.6 s against 40.2 s, even; 100k/8 shards 139.2 s against 125.0 s. With
// the 4k and 10k one-P rows (one kernel faster on 16 of 16 seeds at 4k,
// by 20–25 % on two at 10k) that is why a replica left one executor slot
// now runs on one kernel (scenario.ReasonSlots).
//
// So a sharded row needs a second slot: it raises GOMAXPROCS to 2 when it
// is lower (at -cpu 1, say), which makes it a two-P row. The shard count
// per size is the largest probed count that executes tie-free at the
// benchmark seed. Cross-shard timestamp ties abort and rerun on one kernel
// — deterministic per seed, and not rare: 18 of 100 field_scale-shaped
// replicas (4000 nodes, 4 shards) trip — so the assertion below keeps a
// tie or a one-slot plan from silently mislabeling a single-kernel run.
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
				if shards > 1 && runtime.GOMAXPROCS(0) < 2 {
					withProcs(b, 2)
				}
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
						b.Fatalf("replica executed with %d shards (%s), want %d: numbers would be mislabeled", res.Shards, res.ShardReason, shards)
					}
				}
			})
		}
	}
}

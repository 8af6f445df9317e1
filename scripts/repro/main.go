// Command repro is the paper-reproduction driver and analyzer: one
// invocation submits the full paper grid — Fig. 7 (blackhole sweep),
// Fig. 8 (sensor fault sweep) and the fault-campaign coverage sweep — to
// a running icserved, follows each job's JSONL progress, and emits the
// grouped summary tables and long-form CSVs for every figure, all rebuilt
// by the service from the content-addressed artifact store only.
//
// Usage:
//
//	icserved -addr :8080 -dir state &          # the service
//	go run ./scripts/repro -addr http://127.0.0.1:8080 -out repro-out
//
// The grids are the presets of internal/experiment/presets.go — the ones
// `icsweep blackhole`, `icsweep sensor` and `icsweep campaign` start from
// (reduced under -quick) — so at their defaults the CLI and this driver
// enumerate the same replicas and render byte-identical tables. A second
// run of the driver is a pure artifact-store read: every replica dedups
// against its manifest.
//
// Per figure, -out receives <name>.txt (rendered tables), <name>.csv
// (long form: row,col,n,mean,ci95) and <name>.manifest.json (provenance:
// grid spec hash, tables hash, git revision, IC_* knobs, wall clock).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"innercircle/internal/cliutil"
	"innercircle/internal/experiment"
	"innercircle/internal/serve"
)

func run() error {
	var (
		addr  = flag.String("addr", "http://127.0.0.1:8080", "icserved base URL")
		out   = flag.String("out", "repro-out", "output directory for tables, CSVs and manifests")
		runs  = flag.Int("runs", 5, "simulation runs per data point (the paper uses 50)")
		seed  = flag.Int64("seed", 1, "base seed")
		quick = flag.Bool("quick", false, "reduced grids for a fast preview (the presets' -quick shapes)")
		quiet = flag.Bool("quiet", false, "suppress per-replica progress")
		smoke = flag.Bool("smoke", false, "CI smoke: submit a 2-point grid twice, assert the rerun dedups against the store")
	)
	flag.Parse()

	if *smoke {
		return runSmoke(*addr, *seed)
	}

	grids := []*experiment.GridRequest{
		experiment.Fig7Grid(*seed, *runs, *quick),
		experiment.Fig8Grid(*seed, *runs, *quick),
		experiment.CoverageGrid(*seed, *runs, *quick),
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	c := &serve.Client{Base: *addr}
	ctx := context.Background()

	type outcome struct {
		job    serve.JobInfo
		tables string
	}
	outcomes := make([]outcome, 0, len(grids))
	for _, g := range grids {
		job, err := c.Submit(ctx, g)
		if err != nil {
			return fmt.Errorf("submitting %s: %w", g.Name, err)
		}
		fmt.Fprintf(os.Stderr, "repro: %s queued as %s (%d replicas)\n", g.Name, job.ID, job.Total)
		job, err = c.Wait(ctx, job.ID, func(e serve.Event) {
			if *quiet || e.Type != "point" {
				return
			}
			mark := ""
			if e.FromCache {
				mark = " (store)"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s%s\n", e.Done, e.Total, e.Label, mark)
		})
		if err != nil {
			return fmt.Errorf("waiting for %s: %w", g.Name, err)
		}
		if job.State != serve.JobDone {
			return fmt.Errorf("job %s (%s) ended %s: %s", job.ID, g.Name, job.State, job.Error)
		}
		tables, err := c.Tables(ctx, job.ID)
		if err != nil {
			return err
		}
		csv, err := c.TablesCSV(ctx, job.ID)
		if err != nil {
			return err
		}
		manifest, err := c.Manifest(ctx, job.ID)
		if err != nil {
			return err
		}
		for _, f := range []struct{ suffix, content string }{
			{".txt", tables}, {".csv", csv}, {".manifest.json", string(manifest) + "\n"},
		} {
			if err := os.WriteFile(filepath.Join(*out, g.Name+f.suffix), []byte(f.content), 0o644); err != nil {
				return err
			}
		}
		outcomes = append(outcomes, outcome{job: job, tables: tables})
	}

	for i, g := range grids {
		fmt.Printf("==== %s ====\n\n%s", g.Name, outcomes[i].tables)
	}
	fmt.Println("==== summary ====")
	for i, g := range grids {
		j := outcomes[i].job
		fmt.Printf("%-20s job=%s replicas=%d computed=%d cached=%d tables=%s\n",
			g.Name, j.ID, j.Total, j.Computed, j.Cached, j.TablesSHA256[:12])
	}
	fmt.Printf("outputs in %s\n", *out)
	return nil
}

// runSmoke is the CI smoke path: one tiny 2-point grid, submitted twice.
// It asserts the whole service loop — submission, JSONL progress that
// terminates, table rendering — and that the second, identical submission
// is a pure artifact-store hit with zero recomputed replicas. It prints
// both jobs' computed and cached counts: the first job computes both
// points only on a fresh store, which the caller knows and this does not.
func runSmoke(addr string, seed int64) error {
	cfg := experiment.PaperBlackholeConfig()
	cfg.Nodes = 30
	cfg.SimTime = 20
	cfg.Seed = seed
	grid := func() *experiment.GridRequest {
		g := cfg
		return &experiment.GridRequest{Name: "smoke", Kind: experiment.GridBlackhole,
			Blackhole: &g, Malicious: []int{0}, Levels: []int{1}, Runs: 1}
	}
	c := &serve.Client{Base: addr}
	ctx := context.Background()

	submit := func() (serve.JobInfo, error) {
		job, err := c.Submit(ctx, grid())
		if err != nil {
			return serve.JobInfo{}, err
		}
		// Wait follows the JSONL stream and errors unless it terminates
		// with an "end" line — the stream-termination assertion.
		job, err = c.Wait(ctx, job.ID, func(e serve.Event) {
			if e.Type == "point" {
				fmt.Fprintf(os.Stderr, "smoke: [%d/%d] %s cache=%v\n", e.Done, e.Total, e.Label, e.FromCache)
			}
		})
		if err != nil {
			return serve.JobInfo{}, err
		}
		if job.State != serve.JobDone {
			return serve.JobInfo{}, fmt.Errorf("smoke job ended %s: %s", job.State, job.Error)
		}
		return job, nil
	}
	first, err := submit()
	if err != nil {
		return err
	}
	if first.Total != 2 {
		return fmt.Errorf("smoke grid has %d points, want 2", first.Total)
	}
	second, err := submit()
	if err != nil {
		return err
	}
	if second.Computed != 0 || second.Cached != 2 {
		return fmt.Errorf("rerun computed=%d cached=%d, want 0/2 (dedup failed)", second.Computed, second.Cached)
	}
	if first.TablesSHA256 != second.TablesSHA256 {
		return fmt.Errorf("rerun tables hash %s != first %s", second.TablesSHA256, first.TablesSHA256)
	}
	fmt.Printf("smoke ok: first computed=%d cached=%d, rerun computed=%d cached=%d, tables %s\n",
		first.Computed, first.Cached, second.Computed, second.Cached, first.TablesSHA256[:12])
	return nil
}

func main() { cliutil.Main("repro", run) }

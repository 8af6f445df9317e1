package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"innercircle/internal/artifact"
	"innercircle/internal/experiment"
	"innercircle/internal/sensor"
)

// quickGrid returns a 4-replica blackhole grid small enough for tests.
func quickGrid(name string, seed int64) *experiment.GridRequest {
	cfg := experiment.PaperBlackholeConfig()
	cfg.Nodes = 30
	cfg.SimTime = 20
	cfg.Seed = seed
	return &experiment.GridRequest{
		Name:      name,
		Kind:      experiment.GridBlackhole,
		Blackhole: &cfg,
		Malicious: []int{0, 2},
		Levels:    []int{1},
		Runs:      1,
	}
}

// inProcessTables renders g the way cmd/icsweep does: RunGrid on the
// worker pool, no store, no HTTP.
func inProcessTables(t *testing.T, g *experiment.GridRequest) string {
	t.Helper()
	tables, err := experiment.RunGrid(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g.Render(tables)
}

// startServer spins up a Server plus its HTTP front on a temp dir and
// returns a client; everything stops at test cleanup.
func startServer(t *testing.T, dir string, parallel int) (*Server, *Client) {
	t.Helper()
	srv, c, stop := openServer(t, dir, parallel)
	t.Cleanup(stop)
	return srv, c
}

// openServer is startServer for a test that restarts the service: stop
// shuts the HTTP front and the queue down.
func openServer(t *testing.T, dir string, parallel int) (srv *Server, c *Client, stop func()) {
	t.Helper()
	srv, err := New(Options{Dir: dir, Parallel: parallel, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	c, stop = serveAll(srv)
	return srv, c, stop
}

// serveAll runs srv's queue and serves its HTTP front; stop shuts both
// down.
func serveAll(srv *Server) (c *Client, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()
	hs := httptest.NewServer(srv.Handler())
	return &Client{Base: hs.URL}, func() {
		hs.Close()
		cancel()
		<-done
	}
}

// runDone submits g, follows the job to its end and returns its record and
// tables; the job must end done.
func runDone(t testing.TB, c *Client, g *experiment.GridRequest) (JobInfo, string) {
	t.Helper()
	ctx := context.Background()
	j, err := c.Submit(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	return waitDone(t, c, j.ID)
}

// waitDone follows job id to its end and returns its record and tables;
// the job must end done.
func waitDone(t testing.TB, c *Client, id string) (JobInfo, string) {
	t.Helper()
	ctx := context.Background()
	j, err := c.Wait(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != JobDone {
		t.Fatalf("job %s state %q: %s", j.ID, j.State, j.Error)
	}
	tables, err := c.Tables(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	return j, tables
}

// TestServiceDedup pins the tentpole acceptance criterion: submitting the
// identical grid twice produces identical artifact digests and tables,
// and the second job is served entirely from the store — zero recompute.
func TestServiceDedup(t *testing.T) {
	srv, c := startServer(t, t.TempDir(), 1)
	ctx := context.Background()

	grid := quickGrid("dedup", 11)
	j1, err := c.Submit(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	var firstEvents []Event
	j1, err = c.Wait(ctx, j1.ID, func(e Event) { firstEvents = append(firstEvents, e) })
	if err != nil {
		t.Fatal(err)
	}
	if j1.State != JobDone {
		t.Fatalf("first job state %q: %s", j1.State, j1.Error)
	}
	if j1.Computed != 4 || j1.Cached != 0 {
		t.Fatalf("first job computed=%d cached=%d, want 4/0", j1.Computed, j1.Cached)
	}

	// The rendered tables must be byte-identical to the in-process sweep
	// the CLI runs (store round-trip changes nothing).
	wantTables := inProcessTables(t, grid)
	gotTables, err := c.Tables(ctx, j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotTables != wantTables {
		t.Fatalf("service tables differ from CLI sweep:\n--- sweep ---\n%s--- service ---\n%s", wantTables, gotTables)
	}
	if csv, err := c.TablesCSV(ctx, j1.ID); err != nil || !strings.HasPrefix(csv, "# Fig. 7(a)") {
		t.Fatalf("csv fetch: %q err %v", csv, err)
	}

	// Second identical submission: all cache hits, same digests, same
	// tables hash, no replica recomputed.
	j2, err := c.Submit(ctx, quickGrid("dedup", 11))
	if err != nil {
		t.Fatal(err)
	}
	var secondEvents []Event
	j2, err = c.Wait(ctx, j2.ID, func(e Event) { secondEvents = append(secondEvents, e) })
	if err != nil {
		t.Fatal(err)
	}
	if j2.State != JobDone || j2.Computed != 0 || j2.Cached != 4 {
		t.Fatalf("second job state=%q computed=%d cached=%d, want done/0/4", j2.State, j2.Computed, j2.Cached)
	}
	if j1.TablesSHA256 == "" || j1.TablesSHA256 != j2.TablesSHA256 {
		t.Fatalf("tables hashes differ: %q vs %q", j1.TablesSHA256, j2.TablesSHA256)
	}
	digests := func(evs []Event) map[string]string {
		m := map[string]string{}
		for _, e := range evs {
			if e.Type == "point" {
				m[e.SpecSHA] = e.ResultSHA
			}
		}
		return m
	}
	d1, d2 := digests(firstEvents), digests(secondEvents)
	if len(d1) != 4 || len(d2) != 4 {
		t.Fatalf("point event counts: %d and %d, want 4 and 4", len(d1), len(d2))
	}
	for spec, res := range d1 {
		if d2[spec] != res {
			t.Fatalf("spec %s: result digest changed %s → %s", spec, res, d2[spec])
		}
	}
	for _, e := range secondEvents {
		if e.Type == "point" && !e.FromCache {
			t.Fatalf("second submission recomputed point %q", e.Label)
		}
	}

	// Artifacts are servable by digest and hash-verified end to end.
	for _, res := range d1 {
		b, err := c.Artifact(ctx, res)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := experiment.DecodeReplicaResult(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Store().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceRefusesCorruptObject: a stored result whose bytes changed on
// disk but still decode is never served or folded. One digit flips inside
// a result object; the store read, the artifact endpoint and a warm
// resubmission must each refuse it and name the object.
func TestServiceRefusesCorruptObject(t *testing.T) {
	srv, c := startServer(t, t.TempDir(), 1)
	ctx := context.Background()

	var digest string
	j, err := c.Submit(ctx, quickGrid("corrupt", 11))
	if err != nil {
		t.Fatal(err)
	}
	j, err = c.Wait(ctx, j.ID, func(e Event) {
		if e.Type == "point" && digest == "" {
			digest = e.ResultSHA
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != JobDone || digest == "" {
		t.Fatalf("first job state %q, digest %q: %s", j.State, digest, j.Error)
	}

	path := filepath.Join(srv.Store().Root(), "objects", digest[:2], digest[2:])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last digit of a number can take any value and stay valid JSON.
	i := bytes.IndexFunc(b, func(r rune) bool { return r >= '0' && r <= '9' })
	for i >= 0 && i+1 < len(b) && b[i+1] >= '0' && b[i+1] <= '9' {
		i++
	}
	if i < 0 {
		t.Fatalf("result object has no digit to flip: %s", b)
	}
	b[i] = '0' + (b[i]-'0'+1)%10
	if _, err := experiment.DecodeReplicaResult(b); err != nil {
		t.Fatalf("flipped object must still decode: %v", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := srv.Store().GetResult(digest); !errors.Is(err, artifact.ErrCorrupt) {
		t.Fatalf("GetResult of a flipped object: err %v, want artifact.ErrCorrupt", err)
	}
	resp, err := http.Get(c.Base + "/artifacts/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /artifacts of a flipped object: status %d, want 500", resp.StatusCode)
	}

	j, err = c.Submit(ctx, quickGrid("corrupt", 11))
	if err != nil {
		t.Fatal(err)
	}
	if j, err = c.Wait(ctx, j.ID, nil); err != nil {
		t.Fatal(err)
	}
	if j.State != JobFailed || !strings.Contains(j.Error, digest) {
		t.Fatalf("warm resubmission over a flipped object: state %q, error %q; want failed naming %s", j.State, j.Error, digest)
	}
}

// TestServiceShardCountSharesStoreKey: a replica's store key leaves its
// shard count out, so a sensor grid resubmitted at another count is served
// entirely from the store, with the same tables.
func TestServiceShardCountSharesStoreKey(t *testing.T) {
	_, c := startServer(t, t.TempDir(), 1)
	ctx := context.Background()
	run := func(shards int) JobInfo {
		cfg := experiment.PaperSensorConfig()
		cfg.Nodes, cfg.SimTime, cfg.Seed, cfg.Shards = 20, 60, 5, shards
		j, err := c.Submit(ctx, &experiment.GridRequest{Name: "shards", Kind: experiment.GridSensor, Sensor: &cfg,
			Faults: []sensor.FaultKind{sensor.FaultNone}, Runs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if j, err = c.Wait(ctx, j.ID, nil); err != nil {
			t.Fatal(err)
		}
		if j.State != JobDone {
			t.Fatalf("job at %d shards: state %q: %s", shards, j.State, j.Error)
		}
		return j
	}
	first, second := run(0), run(2)
	if first.Computed != 1 {
		t.Fatalf("first job computed %d replicas, want 1", first.Computed)
	}
	if second.Computed != 0 || second.Cached != 1 {
		t.Fatalf("job at 2 shards computed=%d cached=%d, want 0/1", second.Computed, second.Cached)
	}
	if first.TablesSHA256 == "" || second.TablesSHA256 != first.TablesSHA256 {
		t.Fatalf("tables hashes differ: %q vs %q", first.TablesSHA256, second.TablesSHA256)
	}
}

// TestServiceShardsLikeInProcess pins the service's core-token accounting
// to the in-process pool's: a lone sharded replica holds one token for
// itself, so with four cores its planner has the spare token a second
// shard needs, as it does under experiment.RunJobs. Charging the job's
// worker tokens on top of the pool's per-replica token left it none.
func TestServiceShardsLikeInProcess(t *testing.T) {
	t.Setenv("IC_WORKERS", "")
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	srv, c := startServer(t, t.TempDir(), 1)
	ctx := context.Background()

	cfg := experiment.PaperSensorConfig()
	cfg.Nodes, cfg.SimTime, cfg.Shards = 100, 20, 2
	j, err := c.Submit(ctx, &experiment.GridRequest{Name: "shards-budget", Kind: experiment.GridChurn,
		Sensor: &cfg, Levels: []int{3}, Churns: []int{0}, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j, err = c.Wait(ctx, j.ID, nil); err != nil {
		t.Fatal(err)
	}
	if j.State != JobDone || j.Computed != 1 {
		t.Fatalf("job state %q computed %d: %s", j.State, j.Computed, j.Error)
	}
	ms, err := srv.Store().Manifests()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Shards != 2 {
		t.Fatalf("manifests %+v, want one replica run on 2 shards", ms)
	}
}

// TestServiceConcurrentClientsBudget pins the second acceptance
// criterion: two clients submitting concurrently both complete with
// correct tables, while the replica fan-out respects the core-token
// budget — peak concurrent replicas never exceed budget + parallel (each
// running job keeps one un-budgeted worker so it always progresses).
func TestServiceConcurrentClientsBudget(t *testing.T) {
	const budget = 2
	const parallel = 2
	prev := runtime.GOMAXPROCS(budget)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	_, c := startServer(t, t.TempDir(), parallel)
	experiment.ResetPeakInFlight()

	grids := []*experiment.GridRequest{quickGrid("client-a", 21), quickGrid("client-b", 22)}
	var wg sync.WaitGroup
	infos := make([]JobInfo, len(grids))
	errs := make([]error, len(grids))
	for i, g := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			j, err := c.Submit(ctx, g)
			if err == nil {
				j, err = c.Wait(ctx, j.ID, nil)
			}
			infos[i], errs[i] = j, err
		}()
	}
	wg.Wait()
	for i := range grids {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if infos[i].State != JobDone {
			t.Fatalf("client %d job state %q: %s", i, infos[i].State, infos[i].Error)
		}
		want := inProcessTables(t, grids[i])
		got, err := c.Tables(context.Background(), infos[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("client %d tables differ from CLI sweep", i)
		}
	}
	if peak := experiment.PeakInFlightReplicas(); peak > budget+parallel {
		t.Fatalf("peak in-flight replicas %d exceeds budget %d + parallel %d", peak, budget, parallel)
	}
}

// TestServiceDrainResume pins the crash-recovery contract: a service
// stopped mid-grid (drain, then a simulated hard kill leaving the job
// marked running) resumes on restart, never recomputes replicas already
// in the store, and the store stays Verify-clean throughout.
func TestServiceDrainResume(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Options{Dir: dir, Parallel: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	run1 := make(chan struct{})
	go func() {
		defer close(run1)
		srv1.Run(ctx1)
	}()

	grid := quickGrid("resume", 31)
	job, err := srv1.Submit(grid)
	if err != nil {
		t.Fatal(err)
	}
	// Interrupt once at least one replica has landed in the store.
	deadline := time.Now().Add(60 * time.Second)
	for {
		ms, err := srv1.Store().Manifests()
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no replica landed within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel1()
	<-run1
	landed, err := srv1.Store().Manifests()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Store().Verify(); err != nil {
		t.Fatalf("store corrupt after drain: %v", err)
	}

	// The drained job must be queued (or already done if all replicas beat
	// the cancel). Simulate a hard kill on top: a crashed process leaves
	// the record saying "running"; restart must requeue it all the same.
	j, ok := srv1.Job(job.ID)
	if !ok {
		t.Fatal("job record lost")
	}
	if j.State == JobQueued {
		j.State = JobRunning
		b, _ := json.Marshal(j)
		if err := os.WriteFile(filepath.Join(dir, "jobs", job.ID+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv2, c2 := startServer(t, dir, 1)
	final, err := c2.Wait(context.Background(), job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone {
		t.Fatalf("resumed job state %q: %s", final.State, final.Error)
	}
	if final.Computed+final.Cached != 4 {
		t.Fatalf("resumed job computed=%d cached=%d, want 4 total", final.Computed, final.Cached)
	}
	if final.Cached < len(landed) {
		t.Fatalf("resumed job cached %d < %d replicas already in the store (recompute!)", final.Cached, len(landed))
	}
	if err := srv2.Store().Verify(); err != nil {
		t.Fatalf("store corrupt after resume: %v", err)
	}

	// The resumed job's tables must match a fresh in-process sweep.
	want := inProcessTables(t, grid)
	got, err := c2.Tables(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed tables differ from CLI sweep:\n--- sweep ---\n%s--- resumed ---\n%s", want, got)
	}
}

// TestWarmJobFootprint pins what a warm job writes: resubmitting a done
// grid adds its own record under jobs/ and one store object, its run
// manifest (and that object's directory if it is the first under its
// prefix), and changes nothing else — no replica result or manifest, no
// tables or CSV object, no other job's file — and serves byte-identical
// tables from zero computed replicas.
func TestWarmJobFootprint(t *testing.T) {
	dir := t.TempDir()
	_, c := startServer(t, dir, 1)
	_, coldTables := runDone(t, c, quickGrid("footprint", 71))
	before := snapshotTree(t, dir)
	warm, warmTables := runDone(t, c, quickGrid("footprint", 71))
	after := snapshotTree(t, dir)
	if warm.Computed != 0 || warmTables != coldTables {
		t.Fatalf("warm job computed %d replicas, tables identical %v; want 0 and true", warm.Computed, warmTables == coldTables)
	}
	var touched []string
	for path, st := range after {
		if prev, ok := before[path]; !ok || prev != st {
			touched = append(touched, path)
		}
	}
	for path := range before {
		if _, ok := after[path]; !ok {
			touched = append(touched, path)
		}
	}
	sort.Strings(touched)
	if len(warm.ManifestSHA256) != 64 {
		t.Fatalf("warm job names run manifest %q", warm.ManifestSHA256)
	}
	prefix := "store/objects/" + warm.ManifestSHA256[:2]
	want := []string{"jobs/" + warm.ID + ".json", prefix + "/" + warm.ManifestSHA256[2:]}
	if _, ok := before[prefix]; !ok {
		want = append(want, prefix)
	}
	sort.Strings(want)
	if strings.Join(touched, " ") != strings.Join(want, " ") {
		t.Fatalf("warm job added, changed or removed %q; want only %q", touched, want)
	}
}

// fileState is what snapshotTree records of one path.
type fileState struct {
	dir   bool
	size  int64
	mtime time.Time
	sum   string
}

// snapshotTree records every path under root, slash-separated and relative
// to it, with the size, mtime and content digest of each file.
func snapshotTree(t testing.TB, root string) map[string]fileState {
	t.Helper()
	out := map[string]fileState{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			out[filepath.ToSlash(rel)] = fileState{dir: true}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = fileState{size: info.Size(), mtime: info.ModTime(), sum: artifact.Sum(b)}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServiceRefusesCorruptTables: a done job's tables are a store object,
// read back by digest, so a byte flipped on disk is refused like a flipped
// result (TestServiceRefusesCorruptObject) — 500, naming the corruption.
// Resubmitting the grid puts the tables again, which repairs the object.
func TestServiceRefusesCorruptTables(t *testing.T) {
	srv, c := startServer(t, t.TempDir(), 1)
	j, tables := runDone(t, c, quickGrid("corrupt-tables", 81))
	path := filepath.Join(srv.Store().Root(), "objects", j.TablesSHA256[:2], j.TablesSHA256[2:])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.Base + "/jobs/" + j.ID + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), artifact.ErrCorrupt.Error()) {
		t.Fatalf("GET /tables of a flipped object: status %d body %s; want 500 naming %q", resp.StatusCode, body, artifact.ErrCorrupt)
	}
	again, _ := runDone(t, c, quickGrid("corrupt-tables", 81))
	for _, id := range []string{j.ID, again.ID} {
		if got, err := c.Tables(context.Background(), id); err != nil || got != tables {
			t.Fatalf("job %s after the resubmit: tables identical %v, err %v", id, got == tables, err)
		}
	}
	// An object the store never held is absent, not a fault.
	if resp, err = http.Get(c.Base + "/artifacts/" + artifact.Sum([]byte("absent"))); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /artifacts of an absent object: status %d, want 404", resp.StatusCode)
	}
}

// TestServiceRebuildsLostTables: on restart, a done record whose tables or
// CSV object is missing or corrupt — deleted, flipped, or never named
// because the record predates csv_sha256 — has both rebuilt in place from
// the replica results in the store. The rebuild takes no queue slot, so a
// state dir holding more such records than QueueCap starts clean, and it
// computes nothing. A job whose replica results are gone too stays done,
// and its lost output answers 500.
func TestServiceRebuildsLostTables(t *testing.T) {
	dir := t.TempDir()
	_, c, stop := openServer(t, dir, 1)
	var jobs []JobInfo
	var tables, csv string
	for i := 0; i < 3; i++ {
		j, got := runDone(t, c, quickGrid("lost-object", 91))
		if i == 0 {
			var err error
			tables = got
			if csv, err = c.TablesCSV(context.Background(), j.ID); err != nil {
				t.Fatal(err)
			}
		}
		jobs = append(jobs, j)
	}
	stop()
	first := jobs[0]
	object := func(digest string) string {
		return filepath.Join(dir, "store", "objects", digest[:2], digest[2:])
	}
	results := func() int {
		ms, err := os.ReadDir(filepath.Join(dir, "store", "manifests"))
		if err != nil {
			t.Fatal(err)
		}
		return len(ms)
	}
	replicas := results()
	// restart opens the state dir with a queue of one, fewer slots than done
	// records, and serves it over HTTP without running the queue.
	restart := func() (*Server, *Client) {
		srv, err := New(Options{Dir: dir, QueueCap: 1, Logf: t.Logf})
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		if n := len(srv.queue); n != 0 {
			t.Fatalf("restart queued %d jobs, want 0", n)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		return srv, &Client{Base: hs.URL}
	}
	for _, lose := range []struct {
		name string
		do   func() error
	}{
		{"CSV object deleted", func() error { return os.Remove(object(first.CSVSHA256)) }},
		{"tables object flipped", func() error {
			b, err := os.ReadFile(object(first.TablesSHA256))
			if err != nil {
				return err
			}
			b[len(b)/2] ^= 1
			return os.WriteFile(object(first.TablesSHA256), b, 0o644)
		}},
		{"records without csv_sha256", func() error {
			for _, j := range jobs {
				record := filepath.Join(dir, "jobs", j.ID+".json")
				b, err := os.ReadFile(record)
				if err != nil {
					return err
				}
				var m map[string]any
				if err := json.Unmarshal(b, &m); err != nil {
					return err
				}
				delete(m, "csv_sha256")
				if b, err = json.Marshal(m); err != nil {
					return err
				}
				if err := os.WriteFile(record, b, 0o644); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		if err := lose.do(); err != nil {
			t.Fatal(err)
		}
		srv, c := restart()
		for _, want := range jobs {
			j, ok := srv.Job(want.ID)
			if !ok || j.State != JobDone || j.Computed != want.Computed || j.TablesSHA256 != first.TablesSHA256 || j.CSVSHA256 != first.CSVSHA256 {
				t.Fatalf("%s: job %s after the restart: %+v; want done, computed %d, tables %s, csv %s",
					lose.name, want.ID, j, want.Computed, first.TablesSHA256, first.CSVSHA256)
			}
			gotTables, err := c.Tables(context.Background(), j.ID)
			if err != nil || gotTables != tables {
				t.Fatalf("%s: job %s tables identical %v, err %v", lose.name, j.ID, gotTables == tables, err)
			}
			gotCSV, err := c.TablesCSV(context.Background(), j.ID)
			if err != nil || gotCSV != csv {
				t.Fatalf("%s: job %s CSV identical %v, err %v", lose.name, j.ID, gotCSV == csv, err)
			}
		}
		if n := results(); n != replicas {
			t.Fatalf("%s: the restart stored %d replica manifests, want %d", lose.name, n, replicas)
		}
	}

	// Lose the tables and a replica result the rebuild would fold.
	st, err := artifact.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := st.Manifests()
	if err != nil || len(ms) == 0 {
		t.Fatalf("manifests: %d, %v", len(ms), err)
	}
	for _, path := range []string{object(first.TablesSHA256), object(ms[0].ResultSHA256)} {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	srv, c := restart()
	// The CSV digest a rebuild named is in the record on disk.
	if j, _ := srv.Job(first.ID); j.State != JobDone || j.TablesSHA256 != first.TablesSHA256 || j.CSVSHA256 != first.CSVSHA256 {
		t.Fatalf("unrebuildable job after the restart: %+v; want done, naming tables %s and csv %s", j, first.TablesSHA256, first.CSVSHA256)
	}
	resp, err := http.Get(c.Base + "/jobs/" + first.ID + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /tables of a done job whose tables object is gone: status %d, want 500", resp.StatusCode)
	}
}

// TestSubmitRejectsBadGrids: the HTTP layer must reject malformed,
// unknown-field and oversized submissions before anything queues, and
// answer a full queue with 429.
func TestSubmitRejectsBadGrids(t *testing.T) {
	srv, c := startServer(t, t.TempDir(), 1)
	ctx := context.Background()
	bad := quickGrid("bad", 1)
	bad.Runs = 0
	if _, err := c.Submit(ctx, bad); err == nil {
		t.Fatal("zero-runs grid accepted")
	}
	resp, err := c.http().Post(c.Base+"/jobs", "application/json",
		strings.NewReader(`{"name":"x","kind":"blackhole","surprise":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("unknown-field submission got %d, want 400", resp.StatusCode)
	}
	// A body past the limit is cut off mid-value, not buffered: the name
	// alone is twice maxSubmitBytes.
	resp, err = c.http().Post(c.Base+"/jobs", "application/json",
		strings.NewReader(`{"name":"`+strings.Repeat("x", 2*maxSubmitBytes)+`","kind":"blackhole","runs":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission got %d, want 413", resp.StatusCode)
	}
	// An unknown field nested inside a grid's churn schedule is schema
	// drift too, and must not get past the decoder.
	churn, err := json.Marshal(experiment.ChurnGrid(1, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	drifted := strings.Replace(string(churn), `"sensor":{`, `"sensor":{"churn":{"crash_rejoin":1,"surprise":1},`, 1)
	resp, err = c.http().Post(c.Base+"/jobs", "application/json", strings.NewReader(drifted))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("submission with an unknown churn field got %d, want 400", resp.StatusCode)
	}
	// A speed at which a waypoint leg takes no time once wedged the worker
	// that ran it; it is a validation error like any other.
	fast, err := json.Marshal(quickGrid("fast", 1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = c.http().Post(c.Base+"/jobs", "application/json",
		strings.NewReader(strings.Replace(string(fast), `"speed":10,`, `"speed":1e300,`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("submission at 1e300 m/s got %d, want 400", resp.StatusCode)
	}
	// A campaign inside a request has ceilings of its own: two billion
	// copies of every message, or a router fault cycling every nanosecond,
	// used to queue and then hold a worker for as long as it ran.
	for name, entry := range map[string]string{
		"two billion copies":       `{"fault":"duplicate","params":{"copies":2000000000},"targets":{"all":true}}`,
		"a cycle every nanosecond": `{"fault":"blackhole","targets":{"all":true},"schedule":{"every":1e-9,"for":1e-9}}`,
	} {
		resp, err = c.http().Post(c.Base+"/jobs", "application/json", strings.NewReader(
			`{"name":"camp","kind":"campaign","blackhole":{"nodes":20,"region":1000,"sim_time":10},"campaigns":[{"name":"c","entries":[`+entry+`]}],"runs":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("campaign of %s got %d, want 400", name, resp.StatusCode)
		}
	}
	// A body of a few hundred bytes can ask for millions of replicas,
	// through runs or through the axes, or for one replica on a hundred
	// thousand kernels (a 10-node field at a 1 mm range has that many
	// columns to stripe); all are refused before a point is built
	// (enumerating the first took over a gigabyte, running the last 2.4).
	runs, axes := quickGrid("runs", 1), quickGrid("axes", 1)
	runs.Runs = 1000000
	axes.Malicious, axes.Levels = make([]int, 400), make([]int, 400)
	field := experiment.PaperSensorConfig()
	field.Nodes, field.Range, field.SimTime, field.Shards = 10, 0.001, 1, 150000
	kernels := &experiment.GridRequest{Name: "kernels", Kind: experiment.GridSensor, Sensor: &field, Faults: []sensor.FaultKind{sensor.FaultNone}, Runs: 1}
	for name, g := range map[string]*experiment.GridRequest{"a million runs": runs, "400 × 401 points": axes, "150000 shards": kernels} {
		body, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err = c.http().Post(c.Base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != 400 {
			t.Fatalf("submission of %s got %d, want 400", name, resp.StatusCode)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Fatalf("rejecting %s allocated %d MB", name, grew>>20)
		}
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submissions left %d jobs behind", len(jobs))
	}

	// Overload: a server nobody drains, with room for one queued job,
	// answers the second submission 429 and writes no record for it.
	dir := t.TempDir()
	full, err := New(Options{Dir: dir, QueueCap: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(full.Handler())
	defer hs.Close()
	fc := &Client{Base: hs.URL}
	if _, err := fc.Submit(ctx, quickGrid("fits", 1)); err != nil {
		t.Fatalf("first submission into an empty queue: %v", err)
	}
	if _, err := full.Submit(quickGrid("overflow", 2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on a full queue returned %v, want ErrQueueFull", err)
	}
	body, err := json.Marshal(quickGrid("overflow", 2))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = fc.http().Post(fc.Base+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission to a full queue got %d, want 429", resp.StatusCode)
	}
	records, err := filepath.Glob(filepath.Join(jobsDir(dir), "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || len(full.Jobs()) != 1 {
		t.Fatalf("full queue holds %d job records on disk and %d in memory, want 1 and 1", len(records), len(full.Jobs()))
	}
}

// TestEventStreamEndsWithEndLine is the regression test for a followed
// event stream closing without its "end" line: a follower that has read
// every point line of a job must get the job's end line, and then find the
// terminal record (Client.Wait fetches it next). A follower once read the
// stream and looked at the job's state apart, and closed early when the
// job turned terminal in between; it now takes both under one lock. The
// job is made to fail after its last point — a warm resubmission whose
// tables object has become a directory, so publishing fails — and the
// service's log hook holds the failure until the follower has consumed
// every point line.
func TestEventStreamEndsWithEndLine(t *testing.T) {
	dir := t.TempDir()
	_, c, stop := openServer(t, dir, 1)
	first, _ := runDone(t, c, quickGrid("early-close", 41))
	stop()
	tables := filepath.Join(dir, "store", "objects", first.TablesSHA256[:2], first.TablesSHA256[2:])
	if err := os.Remove(tables); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(tables, 0o755); err != nil {
		t.Fatal(err)
	}
	consumed := make(chan struct{})
	srv, err := New(Options{Dir: dir, Logf: func(format string, args ...any) {
		t.Logf(format, args...)
		if strings.Contains(format, "failed:") {
			<-consumed
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(quickGrid("early-close", 41))
	if err != nil {
		t.Fatal(err)
	}
	c, stop = serveAll(srv)
	t.Cleanup(stop)

	resp, err := http.Get(c.Base + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last Event
	points := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		last = Event{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		if last.Type == "point" {
			if points++; points == job.Total {
				close(consumed)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.Type != "end" || last.State != JobFailed {
		t.Fatalf("stream closed after %d of %d point lines with last line %+v, want the failed job's end line", points, job.Total, last)
	}
	// Whoever has read "end" must find the terminal record.
	if j, _ := srv.Job(job.ID); j.State != JobFailed {
		t.Fatalf("job state %q after the end line, want %q", j.State, JobFailed)
	}
}

// TestFollowerReadsOnlyTheCurrentAttempt pins a follower to one attempt
// of a job. A process that dies mid-job leaves its record running; the
// next process requeues the job and reruns it. A follower attached to the
// requeued job before the new process starts its queue reads nothing until
// the rerun takes the job, then that attempt's lines only: every point
// once, in order and served from the store, then the done job's end line.
// ?follow=0 on the done job returns the same stream at once.
func TestFollowerReadsOnlyTheCurrentAttempt(t *testing.T) {
	dir := t.TempDir()
	grid := quickGrid("stale-stream", 51)
	grid.Malicious = []int{0}

	// A first process runs the job to done, which leaves every replica in
	// the store; then the job is made to look killed mid-attempt.
	srv1, c1, stop1 := openServer(t, dir, 1)
	job, _ := runDone(t, c1, grid)
	stop1()
	j, _ := srv1.Job(job.ID)
	j.State = JobRunning
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(srv1.jobPath(job.ID), b, 0o644); err != nil {
		t.Fatal(err)
	}

	// The next process: follow first, then start the queue.
	srv2, err := New(Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	resp, err := http.Get(hs2.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		hs2.Close()
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	run2 := make(chan struct{})
	go func() {
		defer close(run2)
		srv2.Run(ctx2)
	}()
	t.Cleanup(func() {
		hs2.Close()
		cancel2()
		<-run2
	})
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var last Event
	points := 0
	for _, line := range strings.SplitAfter(string(body), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasSuffix(line, "\n") {
			t.Fatalf("torn line %q", line)
		}
		last = Event{}
		if err := json.Unmarshal([]byte(line), &last); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		if last.Type == "point" {
			if points++; last.Done != points || !last.FromCache {
				t.Fatalf("point line %d is %q; want point %d of the rerun, from the store", points, line, points)
			}
		}
	}
	if last.Type != "end" || last.State != JobDone || points != job.Total {
		t.Fatalf("%d of %d point lines, last line %+v; want every point and the done job's end line", points, job.Total, last)
	}

	// ?follow=0 is a snapshot: a done job's whole stream, at once.
	snap, err := http.Get(hs2.URL + "/jobs/" + job.ID + "/events?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Body.Close()
	if b, err := io.ReadAll(snap.Body); err != nil || !bytes.Equal(b, body) {
		t.Fatalf("snapshot of the done job read %q (err %v), want its stream %q", b, err, body)
	}
}

// TestQueuedFollowerLeavesOnDisconnect: a follower of a job that never
// runs has nothing to read and nothing to wake it, so only its client can
// end it. Once the client goes, the handler returns. ?follow=0 on the
// same job returns at once, empty: the job's attempt has not started.
func TestQueuedFollowerLeavesOnDisconnect(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(quickGrid("never-runs", 61))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	returned := make(chan struct{}, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	// Closed at the end, not deferred: Close waits for a follower that
	// never returns, and the test would hang instead of failing.
	url := hs.URL + "/jobs/" + job.ID + "/events"

	snap, err := http.Get(url + "?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(snap.Body)
	snap.Body.Close()
	if err != nil || snap.StatusCode != http.StatusOK || len(b) != 0 {
		t.Fatalf("snapshot of a queued job: status %d body %q err %v, want 200 and nothing", snap.StatusCode, b, err)
	}
	<-returned

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow of a queued job: status %d", resp.StatusCode)
	}
	select {
	case <-returned:
		t.Fatal("the follower of a queued job returned while its client was still there")
	default:
	}
	cancel()
	resp.Body.Close()
	select {
	case <-returned:
	case <-time.After(30 * time.Second):
		t.Fatal("the follower of a queued job outlived its client by 30 s")
	}
	hs.Close()
	if j, _ := srv.Job(job.ID); j.State != JobQueued {
		t.Fatalf("job state %q, want it still queued", j.State)
	}
}

// TestServiceResumesBacklogPastQueueCap: a service drained with one job
// running and its queue full restarts with the same QueueCap. The running
// job's record still reads queued (the running state is never written), so
// the restart resumes more jobs than QueueCap holds. Resumed jobs have room
// of their own: New succeeds, Submit keeps its bound while they wait, and
// both jobs end done.
func TestServiceResumesBacklogPastQueueCap(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Options{Dir: dir, QueueCap: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	run1 := make(chan struct{})
	go func() {
		defer close(run1)
		srv1.Run(ctx1)
	}()
	// Job A has 80 replicas, so the drain below lands long before it ends.
	long := quickGrid("backlog-a", 101)
	long.Runs = 20
	a, err := srv1.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if j, _ := srv1.Job(a.ID); j.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never left the queue")
		}
	}
	b, err := srv1.Submit(quickGrid("backlog-b", 102))
	if err != nil {
		t.Fatalf("job B into the emptied queue: %v", err)
	}
	cancel1()
	<-run1
	for _, id := range []string{a.ID, b.ID} {
		if j, _ := srv1.Job(id); j.State != JobQueued {
			t.Fatalf("job %s after the drain: state %q, want queued", id, j.State)
		}
	}

	srv2, err := New(Options{Dir: dir, QueueCap: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart with 2 jobs to resume and QueueCap 1: %v", err)
	}
	if _, err := srv2.Submit(quickGrid("backlog-c", 103)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit while 2 resumed jobs wait with QueueCap 1 returned %v, want ErrQueueFull", err)
	}
	c, stop := serveAll(srv2)
	t.Cleanup(stop)
	for _, id := range []string{a.ID, b.ID} {
		waitDone(t, c, id)
	}
}

// replicaManifests counts the replica manifests in dir's store.
func replicaManifests(t *testing.T, dir string) int {
	t.Helper()
	ms, err := os.ReadDir(filepath.Join(dir, "store", "manifests"))
	if err != nil {
		t.Fatal(err)
	}
	return len(ms)
}

// TestServiceImportsParentLayout: a state dir written before run manifests
// were store objects — done records without manifest_sha256, no run
// manifest in the store, and the events and manifest files a job then left
// under jobs/ (testdata/parent-jobs holds a pair that layout wrote for
// this test's first job) — is imported once, through the rebuild. New
// succeeds; every job serves its original tables and CSV byte for byte and
// a rebuilt manifest that names those tables; no replica is recomputed and
// the store stays Verify-clean. The left-over files are neither job records
// nor streams: event lines live in memory, so each job loaded at restart
// streams its end line alone (checkEndLineAlone). A second restart
// rebuilds nothing.
func TestServiceImportsParentLayout(t *testing.T) {
	dir := t.TempDir()
	_, c, stop := openServer(t, dir, 1)
	var jobs []JobInfo
	var tables, csvs []string
	for range 2 {
		j, tb := runDone(t, c, quickGrid("import", 111))
		csv, err := c.TablesCSV(context.Background(), j.ID)
		if err != nil {
			t.Fatal(err)
		}
		jobs, tables, csvs = append(jobs, j), append(tables, tb), append(csvs, csv)
	}
	stop()
	replicas := replicaManifests(t, dir)

	for _, j := range jobs {
		record := filepath.Join(dir, "jobs", j.ID+".json")
		b, err := os.ReadFile(record)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "manifest_sha256")
		if b, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(record, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, "store", "objects", j.ManifestSHA256[:2], j.ManifestSHA256[2:])); err != nil {
			t.Fatal(err)
		}
	}
	leftovers, err := os.ReadDir("testdata/parent-jobs")
	if err != nil || len(leftovers) == 0 {
		t.Fatalf("testdata/parent-jobs: %d files, err %v", len(leftovers), err)
	}
	for _, e := range leftovers {
		b, err := os.ReadFile(filepath.Join("testdata/parent-jobs", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(e.Name(), jobs[0].ID+".") {
			t.Fatalf("leftover %s is not the first job's (%s)", e.Name(), jobs[0].ID)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs", e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv, c, stop := openServer(t, dir, 1)
	manifests := map[string]string{}
	for i, want := range jobs {
		j, ok := srv.Job(want.ID)
		if !ok || j.State != JobDone || j.Computed != want.Computed || j.TablesSHA256 != want.TablesSHA256 ||
			j.CSVSHA256 != want.CSVSHA256 || len(j.ManifestSHA256) != 64 {
			t.Fatalf("job %s after the import: %+v; want done, computed %d, the same tables and CSV and a manifest", want.ID, j, want.Computed)
		}
		gotTables, err := c.Tables(context.Background(), j.ID)
		if err != nil || gotTables != tables[i] {
			t.Fatalf("job %s tables identical %v, err %v", j.ID, gotTables == tables[i], err)
		}
		gotCSV, err := c.TablesCSV(context.Background(), j.ID)
		if err != nil || gotCSV != csvs[i] {
			t.Fatalf("job %s CSV identical %v, err %v", j.ID, gotCSV == csvs[i], err)
		}
		b, err := c.Manifest(context.Background(), j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var m artifact.RunManifest
		if err := json.Unmarshal(b, &m); err != nil || m.TablesSHA256 != j.TablesSHA256 || artifact.Sum(b) != j.ManifestSHA256 {
			t.Fatalf("job %s manifest %s (err %v); want one naming tables %s, stored as %s", j.ID, b, err, j.TablesSHA256, j.ManifestSHA256)
		}
		manifests[j.ID] = j.ManifestSHA256
		checkEndLineAlone(t, c, j)
	}
	if n := len(srv.Jobs()); n != len(jobs) {
		t.Fatalf("the import loaded %d jobs, want %d", n, len(jobs))
	}
	if n := replicaManifests(t, dir); n != replicas {
		t.Fatalf("the import stored %d replica manifests, want %d", n, replicas)
	}
	if err := srv.Store().Verify(); err != nil {
		t.Fatal(err)
	}
	stop()

	again, err := New(Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for id, digest := range manifests {
		if j, _ := again.Job(id); j.ManifestSHA256 != digest {
			t.Fatalf("job %s: a second restart changed its manifest %s to %s", id, digest, j.ManifestSHA256)
		}
	}
}

// checkEndLineAlone: a done job loaded at restart streams exactly one
// line, its end line read off its record — followed and with ?follow=0
// alike — and Client.Wait returns the record.
func checkEndLineAlone(t *testing.T, c *Client, record JobInfo) {
	t.Helper()
	ctx := context.Background()
	var stream string
	for _, query := range []string{"", "?follow=0"} {
		got, err := c.getText(ctx, "/jobs/"+record.ID+"/events"+query)
		if err != nil {
			t.Fatal(err)
		}
		if stream == "" {
			stream = got
		}
		if got != stream || strings.Count(got, "\n") != 1 || !strings.HasSuffix(got, "\n") {
			t.Fatalf("events%s of restarted job %s: %q; want one line, the same as followed (%q)", query, record.ID, got, stream)
		}
	}
	var end Event
	if err := json.Unmarshal([]byte(stream), &end); err != nil {
		t.Fatal(err)
	}
	want := Event{Type: "end", State: record.State, Computed: record.Computed, Cached: record.Cached,
		TablesSHA256: record.TablesSHA256, Error: record.Error}
	if end != want {
		t.Fatalf("end line of restarted job %s: %+v, want %+v", record.ID, end, want)
	}
	waited, err := c.Wait(ctx, record.ID, nil)
	a, _ := json.Marshal(waited)
	b, _ := json.Marshal(record)
	if err != nil || !bytes.Equal(a, b) {
		t.Fatalf("Wait on restarted job %s: %s, err %v; want %s", record.ID, a, err, b)
	}
}

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
	srv, err := New(Options{Dir: dir, Parallel: parallel, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		<-done
	})
	return srv, &Client{Base: hs.URL}
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
// event stream closing without its "end" line. The follower returns when a
// read reaching EOF follows a look at the job that found it no longer
// queued or running; a job used to turn done/failed before its "end" line
// was written, so a follower landing in between (after an earlier read had
// consumed the last "point" line) closed the stream early. The test forces
// exactly that order: the job is made to fail after its last point (its
// tables path is a directory), the service's log hook first lets the
// follower consume every point line, then — called from inside the
// terminal state transition, because the job record's path is a directory
// too and the persist fails — holds the transition open until the
// follower, woken by the end line's write, is parked on the server lock to
// look at the job. Its last read comes after the state turned.
func TestEventStreamEndsWithEndLine(t *testing.T) {
	var failing atomic.Bool
	consumed := make(chan struct{})
	srv, err := New(Options{Dir: t.TempDir(), Logf: func(format string, args ...any) {
		t.Logf(format, args...)
		switch {
		case strings.Contains(format, "failed:"):
			<-consumed
			failing.Store(true)
		case strings.Contains(format, "persisting job") && failing.Load():
			if !waitFollowerParked() {
				t.Error("the follower never came back for the job's state after the end line was written")
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(quickGrid("early-close", 41))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(srv.tablesPath(job.ID), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(srv.jobPath(job.ID)); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(srv.jobPath(job.ID), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		<-done
	})

	resp, err := http.Get(hs.URL + "/jobs/" + job.ID + "/events")
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
	// Whoever has read "end" must find the terminal record (Client.Wait
	// fetches it next).
	if j, _ := srv.Job(job.ID); j.State != JobFailed {
		t.Fatalf("job state %q after the end line, want %q", j.State, JobFailed)
	}
}

// waitFollowerParked reports whether, within 30 s, some goroutine is
// blocked on the server lock inside Server.watch — a follower about to
// look at its job.
func waitFollowerParked() bool {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "serve.(*Server).watch(") && strings.Contains(g, "sync.(*Mutex).Lock(") {
				return true
			}
		}
	}
	return false
}

// TestFollowerReadsOnlyTheCurrentAttempt pins a follower to one attempt
// of a job. A process that dies mid-job leaves its record running and its
// event stream without an "end" line; the next process requeues the job
// and reruns it, truncating the stream. A follower that attached to the
// requeued job used to read the dead attempt's lines at once and then,
// past the truncation, read the new attempt from the old attempt's
// offset: stale lines, then a torn line or none, and no "end". Here the
// follower is attached before the new process starts its queue, and the
// stale stream is longer than the new attempt's.
func TestFollowerReadsOnlyTheCurrentAttempt(t *testing.T) {
	dir := t.TempDir()
	grid := quickGrid("stale-stream", 51)
	grid.Malicious = []int{0}

	// A first process runs the job to done, which leaves every replica in
	// the store; then the job is made to look killed mid-attempt.
	srv1, err := New(Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	run1 := make(chan struct{})
	go func() {
		defer close(run1)
		srv1.Run(ctx1)
	}()
	hs1 := httptest.NewServer(srv1.Handler())
	job, err := srv1.Submit(grid)
	if err != nil {
		t.Fatal(err)
	}
	if j, err := (&Client{Base: hs1.URL}).Wait(context.Background(), job.ID, nil); err != nil || j.State != JobDone {
		t.Fatalf("first attempt: state %q err %v", j.State, err)
	}
	hs1.Close()
	cancel1()
	<-run1
	j, _ := srv1.Job(job.ID)
	j.State = JobRunning
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(srv1.jobPath(job.ID), b, 0o644); err != nil {
		t.Fatal(err)
	}
	var stale bytes.Buffer
	for i := 1; i <= 20; i++ {
		line, _ := json.Marshal(Event{Type: "point", Done: i, Total: 20, Label: "stale attempt"})
		stale.Write(append(line, '\n'))
	}
	if err := os.WriteFile(srv1.eventsPath(job.ID), stale.Bytes(), 0o644); err != nil {
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
	onDisk, err := os.ReadFile(srv2.eventsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, onDisk) {
		t.Fatalf("follower read\n%s\nwant the new attempt's stream\n%s", body, onDisk)
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
		if last.Label == "stale attempt" {
			t.Fatalf("stale line %q", line)
		}
		if last.Type == "point" {
			points++
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
	if b, err := io.ReadAll(snap.Body); err != nil || !bytes.Equal(b, onDisk) {
		t.Fatalf("snapshot of the done job read %q (err %v), want its stream", b, err)
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

// TestCopyEventsLeavesTornLine pins the follower against a half-written
// event: the writer's append is not atomic with respect to a reader, so a
// read can land between the two halves of one line. The unterminated tail
// must be held back — also when it is longer than the reader's buffer —
// and the next read delivers the line intact, each byte exactly once.
func TestCopyEventsLeavesTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.events.jsonl")
	first := `{"type":"point","done":1}` + "\n"
	head, tail := `{"type":"point","label":"`+strings.Repeat("x", 10000), `","done":2}`+"\n"
	end := `{"type":"end"}` + "\n"
	appendFile := func(s string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(s); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	appendFile(first + head)
	es := openEventStream(path)
	if es == nil {
		t.Fatal("stream did not open")
	}
	defer es.f.Close()
	var out strings.Builder
	n, terminal, err := es.copyEvents(&out)
	if err != nil || terminal {
		t.Fatalf("first read: terminal=%v err=%v", terminal, err)
	}
	if out.String() != first || n != len(first) {
		t.Fatalf("first read streamed %q and reported %d bytes, want %q and %d", out.String(), n, first, len(first))
	}

	appendFile(tail + end)
	out.Reset()
	n, terminal, err = es.copyEvents(&out)
	if err != nil || !terminal {
		t.Fatalf("second read: terminal=%v err=%v", terminal, err)
	}
	if want := head + tail + end; out.String() != want || n != len(want) {
		t.Fatalf("second read streamed %d bytes (reported %d), want the torn line whole and the end line: %d bytes", out.Len(), n, len(want))
	}
}

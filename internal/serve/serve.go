// Package serve is the long-running experiment service behind
// cmd/icserved: clients POST experiment grids (experiment.GridRequest),
// a bounded FIFO queue fans their replicas onto the worker pool under the
// core-token budget, every replica result lands in the content-addressed
// artifact store (internal/artifact), and the grid's figure tables are
// rebuilt from store bytes only — so a finished job's output is
// re-derivable, dedupable, and byte-identical to the corresponding CLI's.
//
// Durability model. A job writes what recovery reads back, nothing more.
// Its record (jobs/<id>.json, atomic writes) is the only file it owns,
// written at submission and at the end; the running state lives in memory.
// Replica results persist one by one as they finish, and a done job's
// tables, CSV and run manifest are store objects its record names by
// digest. A crash or SIGTERM loses at most the in-flight replicas' work: on
// restart every record that has not ended re-enters the queue, and every
// replica already in the store is a manifest hit; a done record whose
// outputs are missing or corrupt has them rebuilt in place. A job's JSONL
// progress stream lives in memory, so it holds only this process's
// attempt, and the "end" line is appended in the critical section that
// makes the state terminal. A job loaded at restart holds only its end
// line, read off its record. Every change to a job's stream or state wakes
// its followers; nothing polls.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"innercircle/internal/artifact"
	"innercircle/internal/experiment"
)

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// ErrQueueFull is wrapped by Submit when the bounded job queue has no room;
// the HTTP layer answers it with 429 Too Many Requests.
var ErrQueueFull = errors.New("serve: job queue full")

// JobInfo is a job's public record — what GET /jobs/{id} returns and what
// jobs/<id>.json persists.
type JobInfo struct {
	ID        string                  `json:"id"`
	Name      string                  `json:"name"`
	State     string                  `json:"state"`
	CreatedAt string                  `json:"created_at"`
	Grid      *experiment.GridRequest `json:"grid"`
	// Total is the grid's replica count; Computed and Cached split it into
	// replicas this run executed versus artifact-store hits.
	Total    int `json:"total,omitempty"`
	Computed int `json:"computed,omitempty"`
	Cached   int `json:"cached,omitempty"`
	// TablesSHA256, CSVSHA256 and ManifestSHA256 address a done job's
	// rendered tables, their CSV and its run manifest in the artifact store.
	TablesSHA256   string `json:"tables_sha256,omitempty"`
	CSVSHA256      string `json:"csv_sha256,omitempty"`
	ManifestSHA256 string `json:"manifest_sha256,omitempty"`
	Error          string `json:"error,omitempty"`
}

// Event is one line of a job's JSONL progress stream. Type "point"
// reports a replica (computed or served from the store); type "end"
// terminates the stream with the job's final state.
type Event struct {
	Type string `json:"type"`
	// Point fields.
	Done      int    `json:"done,omitempty"`
	Total     int    `json:"total,omitempty"`
	Label     string `json:"label,omitempty"`
	SpecSHA   string `json:"spec_sha256,omitempty"`
	ResultSHA string `json:"result_sha256,omitempty"`
	FromCache bool   `json:"from_cache,omitempty"`
	// End fields.
	State        string `json:"state,omitempty"`
	Computed     int    `json:"computed,omitempty"`
	Cached       int    `json:"cached,omitempty"`
	TablesSHA256 string `json:"tables_sha256,omitempty"`
	Error        string `json:"error,omitempty"`
}

// endEvent is the line that closes a job's stream, read off its record:
// finish appends it, and a job loaded at restart holds it alone.
func endEvent(j *JobInfo) Event {
	return Event{Type: "end", State: j.State, Computed: j.Computed, Cached: j.Cached,
		TablesSHA256: j.TablesSHA256, Error: j.Error}
}

// Options configures a Server.
type Options struct {
	// Dir is the service's state root: Dir/store holds the artifact store
	// (replica results, rendered tables, CSVs, run manifests), Dir/jobs the
	// job records.
	Dir string
	// Parallel is how many jobs run concurrently (default 1). Replicas
	// within a job always run on the worker pool; Parallel only overlaps
	// distinct jobs.
	Parallel int
	// QueueCap bounds the FIFO of queued jobs (default 64); Submit fails
	// when the queue is full rather than buffering without limit.
	QueueCap int
	// Logf, when set, receives service log lines.
	Logf func(format string, args ...any)
}

// Server owns the queue, the artifact store and the job records. Create
// with New, serve HTTP via Handler, and drive the queue with Run.
type Server struct {
	opts  Options
	store *artifact.Store

	mu   sync.Mutex
	jobs map[string]*job
	seq  int

	// queue holds QueueCap submitted jobs on top of the jobs New resumed.
	queue chan string
}

// job is one job's in-memory state, guarded by Server.mu.
type job struct {
	info JobInfo
	// events is the job's progress stream, whole JSONL lines. A job runs at
	// most one attempt per process (a drained job does not go back on the
	// queue), so the stream is that attempt's. It is only appended to, so
	// the bytes a follower took under the lock are never written again.
	events []byte
	// wake is closed, and replaced, by every change to info or events.
	wake chan struct{}
}

func newJob(info JobInfo) *job { return &job{info: info, wake: make(chan struct{})} }

// changed wakes the job's followers.
func (j *job) changed() {
	close(j.wake)
	j.wake = make(chan struct{})
}

// emit appends one line to the job's stream and wakes its followers.
func (j *job) emit(e Event) {
	b, _ := json.Marshal(e) // an Event is strings, ints and a bool
	j.events = append(append(j.events, b...), '\n')
	j.changed()
}

// New opens (creating if needed) the service state under opts.Dir, requeues
// the jobs a previous process left unfinished and rebuilds lost outputs.
func New(opts Options) (*Server, error) {
	if opts.Parallel <= 0 {
		opts.Parallel = 1
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 64
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	store, err := artifact.Open(filepath.Join(opts.Dir, "store"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(jobsDir(opts.Dir), 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{opts: opts, store: store, jobs: make(map[string]*job)}
	if err := s.loadJobs(); err != nil {
		return nil, err
	}
	return s, nil
}

// Store returns the service's artifact store.
func (s *Server) Store() *artifact.Store { return s.store }

func jobsDir(root string) string { return filepath.Join(root, "jobs") }

func (s *Server) jobPath(id string) string {
	return filepath.Join(jobsDir(s.opts.Dir), id+".json")
}

// loadJobs restores job records from disk — the files named <id>.json for a
// job ID — and makes the queue. Jobs found queued or running (the process
// died under them) re-enter the queue in ID order — IDs are
// sequence-numbered, so the order of their original submission holds — in
// room of their own, so any backlog resumes. A done job whose tables, CSV
// or run manifest object is missing or corrupt (lost, or never named: the
// record predates its digest) has them rebuilt from its replica results
// without taking a queue slot; failing that it stays done, and reading the
// lost output answers 500.
func (s *Server) loadJobs() error {
	entries, err := os.ReadDir(jobsDir(s.opts.Dir))
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var resume []string
	for _, e := range entries {
		stem, isRecord := strings.CutSuffix(e.Name(), ".json")
		n, ok := seqOf(stem)
		if !isRecord || !ok {
			continue
		}
		b, err := os.ReadFile(filepath.Join(jobsDir(s.opts.Dir), e.Name()))
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		var info JobInfo
		if err := json.Unmarshal(b, &info); err != nil {
			return fmt.Errorf("serve: job record %s: %w", e.Name(), err)
		}
		s.seq = max(s.seq, n+1)
		if err := s.rebuild(&info); err != nil {
			s.opts.Logf("serve: job %s: rebuilding its outputs: %v", info.ID, err)
		}
		j := newJob(info)
		if info.State == JobQueued || info.State == JobRunning {
			j.info.State = JobQueued
			resume = append(resume, info.ID)
		} else {
			j.emit(endEvent(&j.info))
		}
		s.jobs[info.ID] = j
	}
	sort.Strings(resume)
	s.queue = make(chan string, s.opts.QueueCap+len(resume))
	for _, id := range resume {
		s.queue <- id
		s.opts.Logf("serve: resuming job %s (%s)", id, s.jobs[id].info.Name)
	}
	return nil
}

// rebuild republishes a done job whose tables, CSV or run manifest object
// is missing or corrupt from its replica results in the store, and records
// the new digests. Other jobs it leaves alone.
func (s *Server) rebuild(j *JobInfo) error {
	if j.State != JobDone || s.intact(j.TablesSHA256, j.CSVSHA256, j.ManifestSHA256) {
		return nil
	}
	points, _, resultSHAs, misses, err := s.resolve(j.Grid)
	if err != nil {
		return err
	}
	if len(misses) > 0 {
		return fmt.Errorf("%d of %d replica results are not in the store", len(misses), len(points))
	}
	tablesSHA, csvSHA, manifestSHA, err := s.publish(j.Grid, resultSHAs, time.Now())
	if err != nil {
		return err
	}
	j.TablesSHA256, j.CSVSHA256, j.ManifestSHA256 = tablesSHA, csvSHA, manifestSHA
	return s.persist(j)
}

// intact reports whether every object digests names reads back whole.
func (s *Server) intact(digests ...string) bool {
	for _, d := range digests {
		if _, err := s.store.GetResult(d); err != nil {
			return false
		}
	}
	return true
}

func seqOf(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n, err == nil && strings.HasPrefix(id, "j")
}

// persist writes a job record atomically. Callers must hold s.mu or own
// the job exclusively.
func (s *Server) persist(j *JobInfo) error {
	b, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return artifact.WriteAtomic(s.jobPath(j.ID), b)
}

// Submit validates a grid, persists a queued job for it and enqueues it.
// It fails with ErrQueueFull while QueueCap jobs wait (bounded FIFO, no
// unbounded buffering).
func (s *Server) Submit(g *experiment.GridRequest) (JobInfo, error) {
	points, err := g.Points() // validates g
	if err != nil {
		return JobInfo{}, err
	}
	s.mu.Lock()
	if len(s.queue) >= s.opts.QueueCap {
		s.mu.Unlock()
		return JobInfo{}, fmt.Errorf("%w (%d queued)", ErrQueueFull, s.opts.QueueCap)
	}
	j := newJob(JobInfo{
		ID:        fmt.Sprintf("j%06d", s.seq),
		Name:      g.Name,
		State:     JobQueued,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Grid:      g,
		Total:     len(points),
	})
	err = s.persist(&j.info)
	if err == nil {
		s.seq++
		s.jobs[j.info.ID] = j
		s.queue <- j.info.ID // never blocks: fewer than QueueCap wait, and only Submit sends, under s.mu
	}
	info := j.info
	s.mu.Unlock()
	if err != nil {
		return JobInfo{}, err
	}
	s.opts.Logf("serve: queued job %s (%s, %d replicas)", info.ID, g.Name, len(points))
	return info, nil
}

// Job returns a snapshot of one job's record.
func (s *Server) Job(id string) (JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return j.info, true
}

// follow returns the lines of job id's stream past its first n bytes, the
// job's state and the channel its next change closes, all under one lock:
// the stream holds its "end" line exactly when the state is terminal.
func (s *Server) follow(id string, n int) (lines []byte, state string, wake <-chan struct{}, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, "", nil, false
	}
	return j.events[n:], j.info.State, j.wake, true
}

// Jobs returns snapshots of every job, in ID (= submission) order.
func (s *Server) Jobs() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.info)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Run drives the job queue until ctx is cancelled, then drains: running
// jobs stop at the next replica boundary (in-flight replicas finish and
// their results persist), are re-marked queued for the next process, and
// Run returns. It is the blocking heart of icserved.
func (s *Server) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for i := 0; i < s.opts.Parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case id := <-s.queue:
					s.runJob(ctx, id)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// emit appends one line to a running job's stream.
func (s *Server) emit(j *job, e Event) {
	s.mu.Lock()
	j.emit(e)
	s.mu.Unlock()
}

// runJob executes one job: resolve every replica against the store, run
// the misses on the worker pool (sized to the core-token budget), then
// publish the grid's tables.
func (s *Server) runJob(ctx context.Context, id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.info.State != JobQueued {
		s.mu.Unlock()
		return
	}
	// The running state is not persisted: loadJobs requeues every record
	// that has not ended.
	j.info.State = JobRunning
	j.changed()
	grid := j.info.Grid
	s.mu.Unlock()
	start := time.Now()

	points, specSHAs, resultSHAs, misses, err := s.resolve(grid)
	if err != nil {
		s.fail(j, err)
		return
	}
	done := 0
	for i, p := range points {
		if resultSHAs[i] != "" {
			done++
			s.emit(j, Event{Type: "point", Done: done, Total: len(points), Label: p.Label,
				SpecSHA: specSHAs[i], ResultSHA: resultSHAs[i], FromCache: true})
		}
	}

	// Run the misses. Each replica persists its own result + manifest the
	// moment it finishes — the unit of crash-recovery granularity.
	if len(misses) > 0 {
		jobs := make([]experiment.Job, len(misses))
		for k, i := range misses {
			p := points[i]
			jobs[k] = experiment.Job{
				Index: k,
				Label: p.Label,
				Run: func() (any, error) {
					t0 := time.Now()
					res, shards, err := p.Spec.Run()
					if err != nil {
						return nil, err
					}
					resultSHA, err := s.store.PutResult(res)
					if err != nil {
						return nil, err
					}
					err = s.store.PutManifest(artifact.Manifest{
						SpecSHA256:   specSHAs[i],
						ResultSHA256: resultSHA,
						Seed:         p.Spec.Seed(),
						GitRev:       artifact.GitRev(),
						Knobs:        artifact.KnobSnapshot(),
						Shards:       shards,
						WallMs:       float64(time.Since(t0)) / float64(time.Millisecond),
						CreatedAt:    artifact.Now(),
					})
					if err != nil {
						return nil, err
					}
					return resultSHA, nil
				},
			}
		}
		_, err := experiment.RunJobsCtx(ctx, jobs, 0, func(nDone, _ int, jb experiment.Job, result any) {
			i := misses[jb.Index]
			resultSHAs[i] = result.(string)
			done++
			s.emit(j, Event{Type: "point", Done: done, Total: len(points), Label: jb.Label,
				SpecSHA: specSHAs[i], ResultSHA: resultSHAs[i]})
		})
		if ctx.Err() != nil {
			// Drain: finished replicas are already in the store; hand the
			// job back to the queue for the next process.
			s.mu.Lock()
			j.info.State = JobQueued
			j.changed()
			s.mu.Unlock()
			s.opts.Logf("serve: job %s interrupted, requeued", id)
			return
		}
		if err != nil {
			s.fail(j, err)
			return
		}
	}

	tablesSHA, csvSHA, manifestSHA, err := s.publish(grid, resultSHAs, start)
	if err != nil {
		s.fail(j, err)
		return
	}
	computed := len(misses)
	cached := len(points) - computed
	s.finish(j, func(j *JobInfo) {
		j.State = JobDone
		j.Computed = computed
		j.Cached = cached
		j.TablesSHA256 = tablesSHA
		j.CSVSHA256 = csvSHA
		j.ManifestSHA256 = manifestSHA
		j.Error = ""
	})
	s.opts.Logf("serve: job %s done (%d computed, %d cached, tables %s)", id, computed, cached, tablesSHA[:12])
}

// resolve looks each point of a grid up in the store: a manifest whose
// result object exists is a cache hit, never recomputed, and fills in the
// point's result digest; misses lists the other points in order.
func (s *Server) resolve(grid *experiment.GridRequest) (points []experiment.ReplicaPoint, specSHAs, resultSHAs []string, misses []int, err error) {
	if points, err = grid.Points(); err != nil {
		return nil, nil, nil, nil, err
	}
	specSHAs = make([]string, len(points))
	resultSHAs = make([]string, len(points))
	for i, p := range points {
		spec, err := p.Spec.Canonical()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		specSHAs[i] = artifact.Sum(spec)
		if m, ok, err := s.store.GetManifest(specSHAs[i]); err != nil {
			return nil, nil, nil, nil, err
		} else if ok && s.store.HasResult(m.ResultSHA256) {
			resultSHAs[i] = m.ResultSHA256
		} else {
			misses = append(misses, i)
		}
	}
	return points, specSHAs, resultSHAs, misses, nil
}

// publish rebuilds a job's tables from the store only — every result byte
// folded is read back by digest, cached and computed alike — and puts the
// tables, their CSV and the run manifest into the store. A warm job's
// tables and CSV are there already, so its manifest is all it writes.
func (s *Server) publish(grid *experiment.GridRequest, resultSHAs []string, start time.Time) (tablesSHA, csvSHA, manifestSHA string, err error) {
	results := make([][]byte, len(resultSHAs))
	for i, d := range resultSHAs {
		if results[i], err = s.store.GetResult(d); err != nil {
			return "", "", "", err
		}
	}
	tables, err := grid.Tables(results)
	if err != nil {
		return "", "", "", err
	}
	rendered := grid.Render(tables)
	manifest, err := artifact.NewRunManifest(grid.Name, grid, grid.BaseSeed(), rendered, start)
	if err != nil {
		return "", "", "", err
	}
	mb, err := json.Marshal(manifest)
	if err != nil {
		return "", "", "", err
	}
	if tablesSHA, err = s.store.PutResult([]byte(rendered)); err != nil {
		return "", "", "", err
	}
	if csvSHA, err = s.store.PutResult([]byte(grid.CSV(tables))); err != nil {
		return "", "", "", err
	}
	manifestSHA, err = s.store.PutResult(mb)
	return tablesSHA, csvSHA, manifestSHA, err
}

// fail marks a job failed and terminates its event stream.
func (s *Server) fail(j *job, err error) {
	s.opts.Logf("serve: job %s failed: %v", j.info.ID, err)
	s.finish(j, func(j *JobInfo) {
		j.State = JobFailed
		j.Error = err.Error()
	})
}

// finish moves a job to the terminal state mut sets, persists its record
// and appends the "end" line read off it, all in one critical section: a
// follower finds "end" in the stream exactly when it finds the state
// terminal, and the record is on disk before anyone reads "end".
func (s *Server) finish(j *job, mut func(*JobInfo)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mut(&j.info)
	if err := s.persist(&j.info); err != nil {
		s.opts.Logf("serve: persisting job %s: %v", j.info.ID, err)
	}
	j.emit(endEvent(&j.info))
}

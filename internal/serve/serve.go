// Package serve is the long-running experiment service behind
// cmd/icserved: clients POST experiment grids (experiment.GridRequest),
// a bounded FIFO queue fans their replicas onto the worker pool under the
// core-token budget, every replica result lands in the content-addressed
// artifact store (internal/artifact), and the grid's figure tables are
// rebuilt from store bytes only — so a finished job's output is
// re-derivable, dedupable, and byte-identical to the corresponding CLI's.
//
// Durability model. A job writes what recovery reads back, nothing more.
// Its record (jobs/<id>.json, atomic writes) is written at submission and
// at the end; the running state lives in memory. Replica results persist
// one by one as they finish, and a done job's tables and CSV are store
// objects its record names by digest, so a warm job adds nothing to the
// store. A crash or SIGTERM loses at most the in-flight replicas' work: on
// restart every record that has not ended re-enters the queue, and every
// replica already in the store is a manifest hit; a done record whose
// tables or CSV object is missing or corrupt has both rebuilt in place. A
// job's JSONL event stream (jobs/<id>.events.jsonl) is truncated by each
// attempt before it turns running and ends with an "end" line, synced
// before the terminal record — the signal clients follow. Every write to a
// job's stream or record wakes that job's followers; nothing polls.
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
	// TablesSHA256 and CSVSHA256 address a done job's rendered tables and
	// their CSV in the artifact store.
	TablesSHA256 string `json:"tables_sha256,omitempty"`
	CSVSHA256    string `json:"csv_sha256,omitempty"`
	Error        string `json:"error,omitempty"`
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

// Options configures a Server.
type Options struct {
	// Dir is the service's state root: Dir/store holds the artifact store
	// (replica results, rendered tables, CSVs), Dir/jobs the job records,
	// event streams and run manifests.
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
	jobs map[string]*JobInfo
	// wakes holds each job's wake signal, created with its record and
	// fired by every write to its event stream or record.
	wakes map[string]*wakeSignal
	seq   int

	queue chan string
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
	s := &Server{
		opts:  opts,
		store: store,
		jobs:  make(map[string]*JobInfo),
		wakes: make(map[string]*wakeSignal),
		queue: make(chan string, opts.QueueCap),
	}
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

func (s *Server) eventsPath(id string) string {
	return filepath.Join(jobsDir(s.opts.Dir), id+".events.jsonl")
}

func (s *Server) manifestPath(id string) string {
	return filepath.Join(jobsDir(s.opts.Dir), id+".manifest.json")
}

// loadJobs restores job records from disk. Jobs found queued or running
// (the process died under them) re-enter the queue in ID order — IDs are
// sequence-numbered, so the order of their original submission holds. A
// done job whose tables or CSV object is missing or corrupt (lost, or never
// named: the record predates csv_sha256) has both rebuilt from its replica
// results without taking a queue slot; failing that it stays done, and
// reading the lost output answers 500.
func (s *Server) loadJobs() error {
	entries, err := os.ReadDir(jobsDir(s.opts.Dir))
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var resume []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".manifest.json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(jobsDir(s.opts.Dir), name))
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		var j JobInfo
		if err := json.Unmarshal(b, &j); err != nil {
			return fmt.Errorf("serve: job record %s: %w", name, err)
		}
		s.jobs[j.ID] = &j
		s.wakes[j.ID] = newWakeSignal()
		if n, ok := seqOf(j.ID); ok && n >= s.seq {
			s.seq = n + 1
		}
		if err := s.rebuild(&j); err != nil {
			s.opts.Logf("serve: job %s: rebuilding its tables: %v", j.ID, err)
		}
		if j.State == JobQueued || j.State == JobRunning {
			j.State = JobQueued
			resume = append(resume, j.ID)
		}
	}
	sort.Strings(resume)
	for _, id := range resume {
		select {
		case s.queue <- id:
			s.opts.Logf("serve: resuming job %s (%s)", id, s.jobs[id].Name)
		default:
			return fmt.Errorf("serve: queue too small to resume %d jobs (cap %d)", len(resume), s.opts.QueueCap)
		}
	}
	return nil
}

// rebuild republishes a done job whose tables or CSV object is missing or
// corrupt from its replica results in the store — tables, CSV and run
// manifest — and records the tables' digests. Other jobs it leaves alone.
func (s *Server) rebuild(j *JobInfo) error {
	_, terr := s.store.GetResult(j.TablesSHA256)
	if _, cerr := s.store.GetResult(j.CSVSHA256); j.State != JobDone || terr == nil && cerr == nil {
		return nil
	}
	points, _, resultSHAs, misses, err := s.resolve(j.Grid)
	if err != nil {
		return err
	}
	if len(misses) > 0 {
		return fmt.Errorf("%d of %d replica results are not in the store", len(misses), len(points))
	}
	tablesSHA, csvSHA, err := s.publish(j.ID, j.Grid, resultSHAs, time.Now())
	if err != nil {
		return err
	}
	j.TablesSHA256, j.CSVSHA256 = tablesSHA, csvSHA
	return s.persist(j)
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
// It fails with ErrQueueFull when the queue is full (bounded FIFO, no
// unbounded buffering).
func (s *Server) Submit(g *experiment.GridRequest) (JobInfo, error) {
	points, err := g.Points() // validates g
	if err != nil {
		return JobInfo{}, err
	}
	s.mu.Lock()
	id := fmt.Sprintf("j%06d", s.seq)
	s.seq++
	j := &JobInfo{
		ID:        id,
		Name:      g.Name,
		State:     JobQueued,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Grid:      g,
		Total:     len(points),
	}
	select {
	case s.queue <- id:
	default:
		s.seq-- // the job never existed
		s.mu.Unlock()
		return JobInfo{}, fmt.Errorf("%w (%d queued)", ErrQueueFull, s.opts.QueueCap)
	}
	s.jobs[id] = j
	s.wakes[id] = newWakeSignal()
	err = s.persist(j)
	info := *j
	s.mu.Unlock()
	if err != nil {
		return JobInfo{}, err
	}
	s.opts.Logf("serve: queued job %s (%s, %d replicas)", id, g.Name, len(points))
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
	return *j, true
}

// watch returns a job's state and the channel its next write closes, both
// under s.mu: a write after this call closes the channel, whether it lands
// in the record (setState) or in the event stream (eventLog.Emit).
func (s *Server) watch(id string) (state string, wake <-chan struct{}, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", nil, false
	}
	return j.State, s.wakes[id].wait(), true
}

// Jobs returns snapshots of every job, in ID (= submission) order.
func (s *Server) Jobs() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
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

// setState transitions a job and wakes its followers. Only a terminal
// state is persisted: loadJobs requeues every record that has not ended.
func (s *Server) setState(id, state string, mut func(*JobInfo)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	j.State = state
	if mut != nil {
		mut(j)
	}
	if state == JobDone || state == JobFailed {
		if err := s.persist(j); err != nil {
			s.opts.Logf("serve: persisting job %s: %v", id, err)
		}
	}
	s.wakes[id].wake()
}

// runJob executes one job: resolve every replica against the store, run
// the misses on the worker pool (sized to the core-token budget), then
// publish the grid's tables.
func (s *Server) runJob(ctx context.Context, id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.State != JobQueued {
		s.mu.Unlock()
		return
	}
	grid, wake := j.Grid, s.wakes[id]
	s.mu.Unlock()
	start := time.Now()

	// Truncate the stream while the job is still queued: a follower reads
	// nothing until the job turns running, so it reads this attempt's lines
	// and never a previous process's.
	ev, err := newEventLog(s.eventsPath(id), wake)
	if err != nil {
		s.fail(id, nil, err)
		return
	}
	defer ev.f.Close()
	s.setState(id, JobRunning, nil)

	points, specSHAs, resultSHAs, misses, err := s.resolve(grid)
	if err != nil {
		s.fail(id, ev, err)
		return
	}
	done := 0
	for i, p := range points {
		if resultSHAs[i] != "" {
			done++
			ev.Emit(Event{Type: "point", Done: done, Total: len(points), Label: p.Label,
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
			ev.Emit(Event{Type: "point", Done: done, Total: len(points), Label: jb.Label,
				SpecSHA: specSHAs[i], ResultSHA: resultSHAs[i]})
		})
		if ctx.Err() != nil {
			// Drain: finished replicas are already in the store; hand the
			// job back to the queue for the next process.
			s.setState(id, JobQueued, nil)
			s.opts.Logf("serve: job %s interrupted, requeued", id)
			return
		}
		if err != nil {
			s.fail(id, ev, err)
			return
		}
	}

	tablesSHA, csvSHA, err := s.publish(id, grid, resultSHAs, start)
	if err != nil {
		s.fail(id, ev, err)
		return
	}
	computed := len(misses)
	cached := len(points) - computed
	s.finish(id, ev, Event{Type: "end", State: JobDone, Computed: computed, Cached: cached, TablesSHA256: tablesSHA},
		func(j *JobInfo) {
			j.Computed = computed
			j.Cached = cached
			j.TablesSHA256 = tablesSHA
			j.CSVSHA256 = csvSHA
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
// tables and their CSV into the store, so a warm job writes neither. The
// run manifest is the one output it writes as a job file.
func (s *Server) publish(id string, grid *experiment.GridRequest, resultSHAs []string, start time.Time) (tablesSHA, csvSHA string, err error) {
	results := make([][]byte, len(resultSHAs))
	for i, d := range resultSHAs {
		if results[i], err = s.store.GetResult(d); err != nil {
			return "", "", err
		}
	}
	tables, err := grid.Tables(results)
	if err != nil {
		return "", "", err
	}
	rendered := grid.Render(tables)
	manifest, err := artifact.NewRunManifest(grid.Name, grid, grid.BaseSeed(), rendered, start)
	if err != nil {
		return "", "", err
	}
	mb, err := json.Marshal(manifest)
	if err != nil {
		return "", "", err
	}
	if tablesSHA, err = s.store.PutResult([]byte(rendered)); err == nil {
		csvSHA, err = s.store.PutResult([]byte(grid.CSV(tables)))
	}
	if err != nil {
		return "", "", err
	}
	return tablesSHA, csvSHA, artifact.WriteAtomic(s.manifestPath(id), mb)
}

// fail marks a job failed and terminates its event stream.
func (s *Server) fail(id string, ev *eventLog, err error) {
	s.opts.Logf("serve: job %s failed: %v", id, err)
	s.finish(id, ev, Event{Type: "end", State: JobFailed, Error: err.Error()},
		func(j *JobInfo) { j.Error = err.Error() })
}

// finish moves a job to the terminal state end names and terminates its
// event stream (ev may be nil when the stream could not be opened). The
// "end" line is written and synced before the job record: a crash between
// the two leaves a record loadJobs requeues, and the rerun truncates the
// stream. Both happen inside one setState, so under s.mu with the
// in-memory state already terminal — a reader that has seen "end" finds a terminal record
// (Client.Wait fetches it next), and a reader that finds a terminal record
// finds "end" in the stream (handleEvents reads to EOF and stops).
func (s *Server) finish(id string, ev *eventLog, end Event, mut func(*JobInfo)) {
	s.setState(id, end.State, func(j *JobInfo) {
		mut(j)
		if ev != nil {
			ev.Emit(end)
		}
	})
}

// eventLog appends JSONL events to a job's stream file. Emit is
// serialized by the pool's progress contract plus the cached-prefix loop
// running before the pool starts; a mutex keeps it safe regardless.
type eventLog struct {
	mu   sync.Mutex
	f    *os.File
	wake *wakeSignal
}

// newEventLog truncates and reopens a job's event stream — each run
// attempt rewrites the stream from its own cache-resolution state. Every
// Emit fires wake.
func newEventLog(path string, wake *wakeSignal) (*eventLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return &eventLog{f: f, wake: wake}, nil
}

// Emit appends one event line and wakes the job's followers. Only the
// "end" line is synced, and with it the whole stream: a rerun truncates the
// stream, so no line of an attempt that died is ever read.
func (l *eventLog) Emit(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	if _, err := l.f.Write(append(b, '\n')); err == nil && e.Type == "end" {
		l.f.Sync()
	}
	l.wake.wake()
}

// wakeSignal is how a job's writers reach its followers: a channel that is
// closed and replaced on each wake. A follower takes the channel before it
// reads, so a write its read missed closes the channel it blocks on.
type wakeSignal struct {
	mu sync.Mutex
	ch chan struct{}
}

func newWakeSignal() *wakeSignal { return &wakeSignal{ch: make(chan struct{})} }

// wait returns the channel the next wake closes.
func (w *wakeSignal) wait() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ch
}

// wake releases every follower blocked on the current channel.
func (w *wakeSignal) wake() {
	w.mu.Lock()
	close(w.ch)
	w.ch = make(chan struct{})
	w.mu.Unlock()
}

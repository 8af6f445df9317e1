// HTTP surface of the experiment service. Go 1.22 pattern routing; all
// bodies are JSON except the rendered-table and event-stream endpoints,
// which are text the CLIs and shell tools can consume directly.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"innercircle/internal/artifact"
	"innercircle/internal/experiment"
)

// Handler returns the service's HTTP mux:
//
//	POST /jobs              submit a grid (experiment.GridRequest JSON) → JobInfo
//	GET  /jobs              list jobs
//	GET  /jobs/{id}         one job's record
//	GET  /jobs/{id}/events  JSONL progress; follows until the "end" line
//	                        (add ?follow=0 for a non-blocking snapshot)
//	GET  /jobs/{id}/tables  rendered figure tables (text, CLI-identical)
//	GET  /jobs/{id}/tables.csv  long-form CSV of the same tables
//	GET  /jobs/{id}/manifest    run manifest (artifact.RunManifest JSON)
//	GET  /artifacts/{digest}    raw result bytes from the store (500 when
//	                            the bytes no longer match the digest)
//	GET  /healthz           liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSON(w, http.StatusOK, j)
	})
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/tables", s.handleJobFile(s.tablesPath, "text/plain; charset=utf-8"))
	mux.HandleFunc("GET /jobs/{id}/tables.csv", s.handleJobFile(s.csvPath, "text/csv; charset=utf-8"))
	mux.HandleFunc("GET /jobs/{id}/manifest", s.handleJobFile(s.manifestPath, "application/json"))
	mux.HandleFunc("GET /artifacts/{digest}", func(w http.ResponseWriter, r *http.Request) {
		b, err := s.store.GetResult(r.PathValue("digest"))
		if errors.Is(err, artifact.ErrCorrupt) {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

// maxSubmitBytes bounds a submitted grid request. The largest paper grid
// is about 1 KiB; a campaign grid grows with its campaign list, and 1 MiB
// is room for thousands of entries.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var g experiment.GridRequest
	if err := dec.Decode(&g); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Sprintf("decoding grid request: %v", err))
		return
	}
	j, err := s.Submit(&g)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrQueueFull) {
			code = http.StatusTooManyRequests
		}
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

// handleEvents serves a job's JSONL stream. By default it follows: lines
// are flushed as they land and the response ends when the terminal "end"
// line is written (or the client goes away). ?follow=0 returns what the
// current attempt has written so far.
//
// A follower reads one attempt. It opens the stream once the job has left
// the queue — runJob truncates the stream before the job turns running —
// and keeps that one reader for the request. Between reads it blocks on
// the job's wake signal, which every Emit and setState fires. Besides the
// "end" line, two states end the response once a read reaches EOF: a
// terminal job, whose "end" is on disk before its state turns
// (Server.finish), so a stream that still has none is legacy and must not
// hang the client; and a job back in the queue, whose attempt was drained.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, wake, ok := s.watch(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	follow := r.URL.Query().Get("follow") != "0"
	flusher, _ := w.(http.Flusher)
	if follow && flusher != nil {
		// A queued job has nothing to stream until it runs; open the
		// response now all the same.
		w.WriteHeader(http.StatusOK)
		flusher.Flush()
	}
	var es *eventStream
	defer func() {
		if es != nil {
			es.f.Close()
		}
	}()
	for {
		if es == nil && state != JobQueued {
			if es = openEventStream(s.eventsPath(id)); es == nil {
				return
			}
		}
		if es != nil {
			n, terminal, err := es.copyEvents(w)
			if n > 0 && flusher != nil {
				flusher.Flush()
			}
			if err != nil || terminal {
				return
			}
		}
		if !follow || (es != nil && state != JobRunning) {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
		state, wake, _ = s.watch(id)
	}
}

// eventStream is one follower's reader over one attempt's stream file.
type eventStream struct {
	f  *os.File
	br *bufio.Reader
	// tail is the start of a line whose newline has not landed yet.
	tail []byte
}

// openEventStream opens a job's stream file for one follower; it returns
// nil when the file cannot be opened (a job that failed before its stream
// existed has none).
func openEventStream(path string) *eventStream {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	return &eventStream{f: f, br: bufio.NewReader(f)}
}

// copyEvents streams the complete lines written since its last call,
// reporting how many bytes it wrote and whether the terminal "end" line
// passed through. Only newline-terminated lines count: an unterminated tail
// is an event still being written, so it is held back and goes out whole
// once a later call reads its newline.
func (es *eventStream) copyEvents(w io.Writer) (n int, terminal bool, err error) {
	for {
		chunk, err := es.br.ReadSlice('\n')
		if err == io.EOF || err == bufio.ErrBufferFull {
			es.tail = append(es.tail, chunk...)
			if err == io.EOF {
				return n, false, nil
			}
			continue
		}
		if err != nil {
			return n, false, err
		}
		line := chunk
		if len(es.tail) > 0 {
			es.tail = append(es.tail, chunk...)
			line = es.tail
		}
		m, err := w.Write(line)
		n += m
		es.tail = es.tail[:0]
		if err != nil {
			return n, false, err
		}
		if bytes.Contains(line, []byte(`"type":"end"`)) {
			return n, true, nil
		}
	}
}

// handleJobFile serves one of a job's result files, 404 until it exists.
func (s *Server) handleJobFile(path func(id string) string, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := s.Job(id); !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		b, err := os.ReadFile(path(id))
		if os.IsNotExist(err) {
			httpError(w, http.StatusNotFound, "not available yet (job not done)")
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(b)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

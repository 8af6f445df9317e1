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
	"time"

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
//	GET  /artifacts/{digest}    raw result bytes from the store
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

// eventsPoll is how often a following events request looks for new lines.
const eventsPoll = 100 * time.Millisecond

// handleEvents serves a job's JSONL stream. By default it follows: lines
// are flushed as they land and the response ends when the terminal "end"
// line is written (or the client goes away). ?follow=0 returns whatever
// exists right now.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	follow := r.URL.Query().Get("follow") != "0"
	flusher, _ := w.(http.Flusher)
	var offset int64
	final := false
	for {
		n, terminal, err := s.copyEvents(w, id, offset)
		offset += n
		if n > 0 && flusher != nil {
			flusher.Flush()
		}
		if err != nil || terminal || !follow || final {
			return
		}
		// A queued/running job may simply not have produced its next line
		// yet. A job found done or failed has its whole stream on disk —
		// "end" is written before the terminal state becomes visible
		// (Server.finish) — but this pass's read may have come just before
		// it, so read once more without waiting and stop; a stream that
		// still has no terminal line (legacy) must not hang the client
		// forever.
		j, ok := s.Job(id)
		if !ok {
			return
		}
		if j.State != JobQueued && j.State != JobRunning && n == 0 {
			final = true
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(eventsPoll):
		}
	}
}

// copyEvents streams complete lines from the job's event file starting at
// offset, reporting how many bytes were consumed and whether the terminal
// "end" line passed through. Only newline-terminated lines count: an
// unterminated tail is an event still being written, so it is neither sent
// nor consumed and the next poll picks it up whole.
func (s *Server) copyEvents(w io.Writer, id string, offset int64) (n int64, terminal bool, err error) {
	f, err := os.Open(s.eventsPath(id))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return 0, false, err
	}
	br := bufio.NewReaderSize(f, 64*1024)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return n, false, nil
		}
		if err != nil {
			return n, false, err
		}
		n += int64(len(line))
		if _, err := w.Write(line); err != nil {
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

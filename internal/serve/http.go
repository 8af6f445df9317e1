// HTTP surface of the experiment service. Go 1.22 pattern routing; all
// bodies are JSON except the rendered-table and event-stream endpoints,
// which are text the CLIs and shell tools can consume directly.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"innercircle/internal/experiment"
)

// Handler returns the service's HTTP mux:
//
//	POST /jobs              submit a grid (experiment.GridRequest JSON) → JobInfo
//	GET  /jobs              list jobs
//	GET  /jobs/{id}         one job's record
//	GET  /jobs/{id}/events  JSONL progress of the current attempt; follows
//	                        until the "end" line (add ?follow=0 for a
//	                        non-blocking snapshot)
//	GET  /jobs/{id}/tables  rendered figure tables (text, CLI-identical)
//	GET  /jobs/{id}/tables.csv  long-form CSV of the same tables
//	GET  /jobs/{id}/manifest    run manifest (artifact.RunManifest JSON)
//	GET  /artifacts/{digest}    raw result bytes from the store
//	GET  /healthz           liveness probe
//
// Tables, CSVs, run manifests and artifacts are store objects, hashed on
// the way out. A done job's output that cannot be read, corrupt or
// missing, is a 500. Event lines live in memory: a job loaded at restart
// streams only its "end" line.
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
	mux.HandleFunc("GET /jobs/{id}/tables", s.handleJobOutput(func(j JobInfo) string { return j.TablesSHA256 }, "text/plain; charset=utf-8"))
	mux.HandleFunc("GET /jobs/{id}/tables.csv", s.handleJobOutput(func(j JobInfo) string { return j.CSVSHA256 }, "text/csv; charset=utf-8"))
	mux.HandleFunc("GET /jobs/{id}/manifest", s.handleJobOutput(func(j JobInfo) string { return j.ManifestSHA256 }, "application/json"))
	mux.HandleFunc("GET /artifacts/{digest}", func(w http.ResponseWriter, r *http.Request) {
		if !s.store.HasResult(r.PathValue("digest")) {
			httpError(w, http.StatusNotFound, "no such object")
			return
		}
		b, err := s.store.GetResult(r.PathValue("digest"))
		writeBytes(w, b, err, "application/json")
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
// are flushed as they land and the response ends with the terminal "end"
// line (or when the client goes away). ?follow=0 returns what the current
// attempt has emitted so far.
//
// A follower reads one attempt: nothing while the job is queued, then the
// lines of the attempt that took it. Between reads it blocks on the job's
// wake channel, which every line and every state change closes. Each read
// takes the new lines and the state under one lock, so the "end" line
// arrives with the terminal state; a job back in the queue after it ran
// had its attempt drained, which ends the response without one.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	lines, state, wake, ok := s.follow(id, 0)
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
	sent, attached := 0, false
	for {
		attached = attached || state != JobQueued
		if attached && len(lines) > 0 {
			if _, err := w.Write(lines); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			sent += len(lines)
		}
		if !follow || state == JobDone || state == JobFailed || attached && state == JobQueued {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
		lines, state, wake, _ = s.follow(id, sent)
	}
}

// handleJobOutput serves the store object digest names of a done job: 404
// before it is done, 500 when the object its record names cannot be read.
func (s *Server) handleJobOutput(digest func(JobInfo) string, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		if j.State != JobDone {
			httpError(w, http.StatusNotFound, "not available yet (job not done)")
			return
		}
		b, err := s.store.GetResult(digest(j))
		writeBytes(w, b, err, contentType)
	}
}

// writeBytes answers with b, or 500 with the error that kept it from being
// read.
func writeBytes(w http.ResponseWriter, b []byte, err error, contentType string) {
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(b)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

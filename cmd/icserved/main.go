// Command icserved is the long-running experiment service: it accepts
// JSON experiment grids over HTTP, fans their replicas onto the worker
// pool under the core-token budget, persists every replica result in a
// content-addressed artifact store, and serves the rebuilt figure tables
// — byte-identical to the corresponding CLI drivers' output.
//
// Usage:
//
//	icserved [-addr :8080] [-dir icserved-state] [-parallel 1] [-queue 64]
//
// Endpoints (see internal/serve):
//
//	POST /jobs                  submit a grid (experiment.GridRequest JSON)
//	GET  /jobs                  list jobs
//	GET  /jobs/{id}             job record
//	GET  /jobs/{id}/events      JSONL progress of the current attempt, held
//	                            in memory; follows until terminal (after a
//	                            restart a done job streams its end line)
//	GET  /jobs/{id}/tables      rendered tables (CLI-identical text)
//	GET  /jobs/{id}/tables.csv  long-form CSV
//	GET  /jobs/{id}/manifest    run manifest (provenance)
//	GET  /artifacts/{digest}    raw result bytes
//	GET  /healthz               liveness probe
//
// A job's record (<dir>/jobs/<id>.json) is the only file it owns; its
// tables, CSV and run manifest are store objects the record names.
//
// On SIGTERM/SIGINT the service drains: in-flight replicas finish and
// persist, interrupted jobs return to the queue, and the next start
// resumes them — replicas already in the store are never recomputed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"innercircle/internal/cliutil"
	"innercircle/internal/serve"
)

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		dir      = flag.String("dir", "icserved-state", "state directory (artifact store + job records)")
		parallel = flag.Int("parallel", 1, "jobs run concurrently (replicas within a job always use the worker pool)")
		queueCap = flag.Int("queue", 64, "bounded job-queue capacity")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, time.Now().UTC().Format("2006-01-02T15:04:05Z")+" "+format+"\n", args...)
	}
	srv, err := serve.New(serve.Options{Dir: *dir, Parallel: *parallel, QueueCap: *queueCap, Logf: logf})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// No WriteTimeout: a followed event stream stays open for as long as
	// its job runs.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	httpErr := make(chan error, 1)
	go func() {
		logf("icserved: listening on %s, state in %s", *addr, *dir)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()

	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		srv.Run(ctx)
	}()

	select {
	case err := <-httpErr:
		stop()
		<-runDone
		return err
	case <-ctx.Done():
	}
	logf("icserved: draining (in-flight replicas finish, queued jobs persist)")
	<-runDone
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	logf("icserved: stopped")
	return nil
}

func main() { cliutil.Main("icserved", run) }

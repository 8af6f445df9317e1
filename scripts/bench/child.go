package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childResult is what one workload child prints as its only stdout line.
// Raw observations only; the parent derives the metrics.
type childResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	Failed   int    `json:"failed"`
	// Failures names the first few failed ops.
	Failures []string `json:"failures,omitempty"`
	// SetupS is child start to the first timed op, SetupCPUS the CPU time
	// in it, SetupCalMs the calibration samples taken right after it.
	SetupS     float64   `json:"setup_s"`
	SetupCPUS  float64   `json:"setup_cpu_s"`
	SetupCalMs []float64 `json:"setup_cal_ms"`
	// The Op slices hold one value per op; the timed window is the ops
	// back to back, so its wall and CPU time are their sums. CalMs holds
	// the calibration samples taken between ops.
	OpMs      []float64 `json:"op_ms"`
	OpCPUS    []float64 `json:"op_cpu_s"`
	OpAllocMB []float64 `json:"op_alloc_mb"`
	CalMs     []float64 `json:"cal_ms"`
	// PeakRSSKB is the child's ru_maxrss when it finished.
	PeakRSSKB int64 `json:"peak_rss_kb"`
	// Digest is the SHA-256 of every op's output bytes, in op order.
	Digest string `json:"digest"`
	// ShardFallbacks counts ops that executed on fewer shards than asked.
	ShardFallbacks int `json:"shard_fallbacks"`
	// Replicas counts replicas the served ops computed.
	Replicas int `json:"replicas"`
	// StreamRefollows counts served jobs whose event stream the service
	// closed before its "end" line and the op followed again (waitJob).
	StreamRefollows int `json:"stream_refollows"`
	GOMAXPROCS      int `json:"gomaxprocs"`
}

const maxFailuresKept = 5

// setupCalSamples is how many calibration samples follow set-up.
const setupCalSamples = 5

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runWorkload is the child side: set up, then run every op once in a
// closed loop, timing each. setupOnly stops after set-up (the parent runs
// extra set-up-only children to report setup_s as a median).
func runWorkload(w workload, seed int64, z size, tmp string, setupOnly bool, started time.Time) (childResult, error) {
	res := childResult{Workload: w.name, Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	p, err := w.plan(planCtx{seed: seed, size: z, ops: w.ops(z), tmp: tmp})
	if err != nil {
		return res, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if p.close != nil {
		defer p.close()
	}
	res.SetupS = time.Since(started).Seconds()
	res.SetupCPUS = cpuSeconds()
	cal := newCalibrator()
	for i := 0; i < setupCalSamples; i++ {
		cal.sample()
	}
	res.SetupCalMs = cal.take()
	if setupOnly {
		return res, nil
	}

	fail := func(i int, err error) {
		res.Failed++
		if len(res.Failures) < maxFailuresKept {
			res.Failures = append(res.Failures, fmt.Sprintf("op %d: %v", i, err))
		}
	}
	outs := make([][]byte, len(p.ops))
	res.OpMs = make([]float64, len(p.ops))
	res.OpCPUS = make([]float64, len(p.ops))
	res.OpAllocMB = make([]float64, len(p.ops))
	res.Ops = len(p.ops)
	// A collection here keeps set-up garbage out of the first op's time.
	runtime.GC()
	var before, after runtime.MemStats
	for i, op := range p.ops {
		cal.sampleIfDue()
		runtime.ReadMemStats(&before)
		cpuStart := cpuSeconds()
		start := time.Now()
		out, err := op()
		res.OpMs[i] = float64(time.Since(start)) / float64(time.Millisecond)
		res.OpCPUS[i] = cpuSeconds() - cpuStart
		runtime.ReadMemStats(&after)
		res.OpAllocMB[i] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		if err != nil {
			fail(i, err)
			continue
		}
		outs[i] = out.data
		res.Replicas += out.replicas
		res.StreamRefollows += out.refollows
		if p.wantShards > 0 && out.shards < p.wantShards {
			res.ShardFallbacks++
		}
	}
	res.CalMs = cal.take()

	h := sha256.New()
	for _, b := range outs {
		h.Write(b)
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	if res.Failed == 0 && p.verify != nil {
		if err := p.verify(outs); err != nil {
			// The outputs as a set are wrong; no single op is to blame, so
			// every op counts as failed.
			res.Failed = res.Ops
			res.Failures = append(res.Failures, fmt.Sprintf("verify: %v", err))
		}
	}
	res.PeakRSSKB = int64(rusage().Maxrss) // kilobytes on Linux
	return res, nil
}

// servedCPUs is the GOMAXPROCS of a child that runs the service (and of the
// traced child): enough for client, server and pool to overlap, small
// enough that hosts of different widths measure the same configuration.
func servedCPUs() int { return min(runtime.NumCPU(), 4) }

// procs is the GOMAXPROCS a workload's children run at.
func (w workload) procs() int {
	if w.served {
		return servedCPUs()
	}
	return 1
}

// scrubbedEnv returns the environment for a child: every IC_* knob removed
// (the ambient values are recorded in the record, not obeyed) and
// GOMAXPROCS pinned to procs.
func scrubbedEnv(procs int) (env []string, removed map[string]string) {
	removed = map[string]string{}
	for _, kv := range os.Environ() {
		name, val, _ := strings.Cut(kv, "=")
		switch {
		case strings.HasPrefix(name, "IC_"):
			removed[name] = val
		case name == "GOMAXPROCS":
		default:
			env = append(env, kv)
		}
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(procs)), removed
}

// childSpec names one child invocation.
type childSpec struct {
	// kind is a workload name, or traceChild for the traced run.
	kind      string
	procs     int
	seed      int64
	size      size
	setupOnly bool
	outDir    string
	timeout   time.Duration
}

const traceChild = "trace"

// runChild re-executes this binary as a child and decodes the JSON object
// on the last line of its stdout into v. A child that fails, hangs past
// its timeout or prints no result is a named error carrying its stderr.
func runChild(ctx context.Context, c childSpec, v any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	args := []string{"-child", c.kind, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.Itoa(c.size.seconds), "-out", c.outDir}
	if c.size.smoke {
		args = append(args, "-smoke")
	}
	if c.setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env, _ = scrubbedEnv(c.procs)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 5 * time.Second
	err = cmd.Run()
	name := "child " + c.kind
	if c.setupOnly {
		name += " (set-up only)"
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%s: no result within %v\nstderr:\n%s", name, c.timeout, stderr.String())
	}
	if err != nil {
		return fmt.Errorf("%s: %w\nstderr:\n%s", name, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return fmt.Errorf("%s: unreadable result %q: %w", name, lines[len(lines)-1], err)
	}
	return nil
}

// childMain is the entry point of a re-executed child.
func childMain(kind string, seed int64, z size, setupOnly bool, outDir string, started time.Time) error {
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var result any
	if kind == traceChild {
		result, err = runTraced(seed, z, tmp, outDir)
	} else {
		w, ok := workloadByName(kind)
		if !ok {
			return fmt.Errorf("unknown workload %q", kind)
		}
		result, err = runWorkload(w, seed, z, tmp, setupOnly, started)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// Package cliutil holds the flag/profile/progress plumbing shared by the
// cmd/ tools, so each main.go is only its own flags plus one library call.
package cliutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"innercircle/internal/artifact"
	"innercircle/internal/experiment"
)

// knobs are the IC_* environment settings the program reads: the sweep
// pool's worker count and nothing else. A shard count is a field of the
// spec (`icsweep sensor|churn -shards`), and which implementation of a
// mechanism runs is never configurable.
var knobs = []string{"IC_WORKERS"}

// warnUnknownKnobs writes one line to w per IC_* variable in environ that
// nothing reads — a retired selector left in a CI file, or a typo such as
// IC_WORKER=4. Such a variable changes nothing, yet artifact.KnobSnapshot
// still records it in manifests, so say so once at startup.
func warnUnknownKnobs(w io.Writer, name string, environ []string) {
	for _, kv := range environ {
		key, _, _ := strings.Cut(kv, "=")
		if strings.HasPrefix(key, "IC_") && !slices.Contains(knobs, key) {
			fmt.Fprintf(w, "%s: warning: %s is set but is not a setting this program reads (known: %s)\n",
				name, key, strings.Join(knobs, ", "))
		}
	}
}

// Main runs a tool body and turns its error into the conventional
// "name: err" + exit(1) epilogue every cmd/ tool shares. It first warns
// about IC_* variables that have no effect.
func Main(name string, run func() error) {
	warnUnknownKnobs(os.Stderr, name, os.Environ())
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// Profile holds the destinations of the profiling flags every cmd/ tool
// shares: a CPU profile covering the run, a heap snapshot taken at stop
// time (after a GC, so live allocations — the sweep engine's steady state
// — dominate over garbage), and block/mutex contention profiles covering
// the run (for inspecting the shard executor's synchronization and the
// event queue's claimed freedom from it).
type Profile struct {
	CPU   string
	Mem   string
	Block string
	Mutex string
}

// AddProfileFlags registers the shared profiling flags
// (-cpuprofile/-memprofile/-blockprofile/-mutexprofile) on fs and returns
// the Profile they fill in after fs is parsed.
func AddProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a pprof heap profile at exit to this file")
	fs.StringVar(&p.Block, "blockprofile", "", "write a pprof blocking profile of the run to this file")
	fs.StringVar(&p.Mutex, "mutexprofile", "", "write a pprof mutex-contention profile of the run to this file")
	return p
}

// Start begins the requested profiles and returns the stop function to
// defer: it ends the CPU profile, writes the heap snapshot, and writes
// (then disables) the contention profiles. Profile setup failures are
// returned; a failed profile write at stop time is reported on stderr
// (the run's results already exist — don't fail them).
func (p *Profile) Start() (stop func(), err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if p.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if p.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	memPath, blockPath, mutexPath := p.Mem, p.Block, p.Mutex
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
		if blockPath != "" {
			if err := writeLookupProfile("block", blockPath); err != nil {
				fmt.Fprintln(os.Stderr, "blockprofile:", err)
			}
			runtime.SetBlockProfileRate(0)
		}
		if mutexPath != "" {
			if err := writeLookupProfile("mutex", mutexPath); err != nil {
				fmt.Fprintln(os.Stderr, "mutexprofile:", err)
			}
			runtime.SetMutexProfileFraction(0)
		}
	}, nil
}

// writeHeapProfile snapshots the heap into path.
func writeHeapProfile(path string) error {
	runtime.GC() // flush garbage so the snapshot shows live memory
	return writeLookupProfile("heap", path)
}

// writeLookupProfile writes the named runtime profile into path.
func writeLookupProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SplitCSV splits a comma-separated flag value, trimming whitespace and
// dropping empty elements; an empty input yields nil.
func SplitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// AddManifestFlag registers icsweep's optional -manifest flag. The
// returned writer is a no-op unless the flag was set; called with the
// grid just run and its rendered tables, it writes an
// artifact.RunManifest carrying the same provenance fields the
// experiment service records — so a CLI run and an icserved job of the
// same grid are directly comparable by spec_sha256 and tables_sha256.
func AddManifestFlag(fs *flag.FlagSet) func(grid *experiment.GridRequest, renderedTables string) error {
	path := fs.String("manifest", "", "write run provenance (artifact.RunManifest JSON) to this file")
	start := time.Now()
	return func(grid *experiment.GridRequest, renderedTables string) error {
		if *path == "" {
			return nil
		}
		m, err := artifact.NewRunManifest(grid.Name, grid, grid.BaseSeed(), renderedTables, start)
		if err != nil {
			return err
		}
		b, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(*path, append(b, '\n'), 0o644)
	}
}

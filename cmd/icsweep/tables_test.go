package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the checked-in sweep tables in testdata/ from this build")

// checkedTables are the sweeps whose stdout is checked in under testdata/:
// the three -quick grids and the campaign smoke, a small mixed campaign
// (testdata/campaign-smoke.json beside two presets). CI's FMA and 386
// steps compare their binaries' output with the same files.
var checkedTables = []struct {
	file string
	args string
}{
	{"blackhole-quick.txt", "blackhole -quick -quiet"},
	{"sensor-quick.txt", "sensor -quick -quiet"},
	{"churn-quick.txt", "churn -quick -quiet"},
	{"campaign-smoke.txt", "campaign -nodes 20 -conns 5 -time 10 -runs 2 -levels 1 -preset clean,blackhole:2 -campaign testdata/campaign-smoke.json -quiet"},
}

// TestCheckedInTables reruns each checked-in sweep and requires its tables
// byte for byte. A difference fails at the first line that differs, named
// by file, table and row. go test ./cmd/icsweep -run TestCheckedInTables
// -update rewrites the files; a change that does so says why, and which
// rows moved, in CHANGES.md.
func TestCheckedInTables(t *testing.T) {
	for _, tc := range checkedTables {
		t.Run(strings.TrimSuffix(tc.file, ".txt"), func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(tc.args), &out); err != nil {
				t.Fatalf("icsweep %s: %v", tc.args, err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (go test -run TestCheckedInTables -update writes it)", err)
			}
			if msg := firstDifference(out.String(), string(want)); msg != "" {
				t.Errorf("icsweep %s differs from %s:%s", tc.args, path, msg)
			}
		})
	}
}

// firstDifference describes the first line where got and want differ: its
// number, the table it lies in, its row label and both texts. It returns
// "" when they are equal.
func firstDifference(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	table := "(before the first table)"
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl == wl {
			if strings.HasPrefix(wl, "## ") {
				table = wl
			}
			continue
		}
		row := wl
		if j := strings.Index(wl, "  "); j >= 0 {
			row = wl[:j]
		}
		return fmt.Sprintf("\nline %d, table %q, row %q:\n  got:  %q\n  want: %q", i+1, table, row, gl, wl)
	}
	return ""
}

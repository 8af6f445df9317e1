package innercircle_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fusingPorts are the GOARCH values whose compilers fuse x*y + z into one
// rounding when the source leaves the product unrounded. amd64's never
// does, so tables computed there would differ from theirs.
var fusingPorts = []string{"arm64", "ppc64le", "s390x", "riscv64"}

// fusedOp matches one instruction of a -S listing that fuses a multiply
// into an add or subtract, capturing its source file and line.
var fusedOp = regexp.MustCompile(`\(([^()\s]+\.go):(\d+)\)\s+F(N)?M(ADD|SUB)[DS]?\s`)

// TestNoFusedMultiplyAdd cross-compiles the program's packages for every
// fusing port and fails on each repository line the compiler turned into a
// fused multiply-add: the simulation's results must be the same bits on
// every port. Each port first proves the scan still bites: a planted
// a*b + c must be flagged and its rounded form float64(a*b) + c passed.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the program for four ports")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command:", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	planted := t.TempDir()
	if err := os.WriteFile(filepath.Join(planted, "go.mod"), []byte("module planted\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, port := range fusingPorts {
		t.Run(port, func(t *testing.T) {
			for _, c := range []struct {
				expr string
				want int
			}{{"a*b + c", 1}, {"float64(a*b) + c", 0}} {
				src := "package planted\n\nfunc F(a, b, c float64) float64 { return " + c.expr + " }\n"
				if err := os.WriteFile(filepath.Join(planted, "p.go"), []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
				if hits := fusedSites(t, planted, port, "planted=-S", "."); len(hits) != c.want {
					t.Errorf("planted %q: %d fused sites %v, want %d", c.expr, len(hits), hits, c.want)
				}
			}
			if hits := fusedSites(t, root, port, "innercircle/...=-S", "./internal/...", "."); len(hits) > 0 {
				t.Errorf("fused multiply-add at\n%s\nround the product where it is formed: float64(x*y) + z", strings.Join(hits, "\n"))
			}
		})
	}
}

// fusedSites builds pkgs in dir for port with the given -gcflags and
// returns every file:line under dir (slash paths relative to it) at which
// the listing shows a fused multiply-add, in order. Inlined library code
// reports its own files, outside dir, and is not counted.
func fusedSites(t *testing.T, dir, port, gcflags string, pkgs ...string) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"build", "-gcflags=" + gcflags}, pkgs...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+port, "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=%s go build: %v\n%s", port, err, out)
	}
	var hits []string
	for _, m := range fusedOp.FindAllSubmatch(out, -1) {
		rel, err := filepath.Rel(dir, string(m[1]))
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		site := filepath.ToSlash(rel) + ":" + string(m[2])
		if !slices.Contains(hits, site) {
			hits = append(hits, site)
		}
	}
	slices.Sort(hits)
	return hits
}

// Package artifact is the provenance layer of the experiment service: a
// content-addressed, write-once store of objects — canonical-JSON replica
// results and the rendered tables and CSVs the service folds from them —
// plus the manifests that make every stored table re-derivable —
// spec hash, seed, git revision, IC_* knob snapshot, the shard count the
// replica actually executed with, and wall-clock cost.
//
// Layout under the store root:
//
//	objects/ab/cdef…   object bytes, named by their own SHA-256
//	manifests/<spec-sha256>.json   one Manifest per replica spec
//
// Objects and manifests are written tmp+fsync+rename+directory fsync
// (WriteAtomic), so a crash leaves either the complete file or nothing,
// and an acknowledged write survives it; Verify re-hashes the whole tree.
// Determinism (PRs 1–7) guarantees that the same spec and seed produce
// the same result bytes — the store is what makes that claim checkable:
// resubmitting a grid must land on the same digests, and a manifest that
// disagrees with an existing one for the same spec is reported as
// corruption instead of being overwritten.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Manifest records the provenance of one stored replica result.
type Manifest struct {
	// SpecSHA256 is the digest of the canonical replica-spec JSON; the
	// manifest file is named after it.
	SpecSHA256 string `json:"spec_sha256"`
	// ResultSHA256 addresses the result object in objects/.
	ResultSHA256 string `json:"result_sha256"`
	Seed         int64  `json:"seed"`
	GitRev       string `json:"git_rev"`
	// Knobs snapshots the IC_* environment at run time.
	Knobs map[string]string `json:"knobs,omitempty"`
	// Shards is the shard count the replica actually executed with in the
	// run that computed it (scenario.Result.Shards — 1 after a fallback or
	// tie rerun, and when the core budget left the replica one executor
	// slot). The spec hash leaves the requested count out, so a run asking
	// for another count is served this result and this manifest.
	Shards int `json:"shards"`
	// WallMs is the replica's wall-clock cost; zero for a cache hit
	// recorded elsewhere. Diagnostic only — not part of any digest.
	WallMs    float64 `json:"wall_ms"`
	CreatedAt string  `json:"created_at"`
}

// RunManifest is the job-level provenance record shared by the service
// and the cmd/ drivers' -manifest flag: CLI and service runs of the same
// grid are comparable by SpecSHA256, and their rendered tables by
// TablesSHA256.
type RunManifest struct {
	Name string `json:"name"`
	// SpecSHA256 digests the canonical grid-request JSON.
	SpecSHA256 string `json:"spec_sha256"`
	// TablesSHA256 digests the rendered output tables.
	TablesSHA256 string            `json:"tables_sha256,omitempty"`
	Seed         int64             `json:"seed"`
	GitRev       string            `json:"git_rev"`
	Knobs        map[string]string `json:"knobs,omitempty"`
	WallMs       float64           `json:"wall_ms"`
	CreatedAt    string            `json:"created_at"`
}

// NewRunManifest is the one RunManifest constructor, for the service and the
// -manifest flag alike: the provenance of a run of grid, named name with
// base seed seed, that started at start and rendered tables.
func NewRunManifest(name string, grid any, seed int64, tables string, start time.Time) (RunManifest, error) {
	spec, err := Canonical(grid)
	if err != nil {
		return RunManifest{}, err
	}
	return RunManifest{
		Name:         name,
		SpecSHA256:   Sum(spec),
		TablesSHA256: Sum([]byte(tables)),
		Seed:         seed,
		GitRev:       GitRev(),
		Knobs:        KnobSnapshot(),
		WallMs:       float64(time.Since(start)) / float64(time.Millisecond),
		CreatedAt:    Now(),
	}, nil
}

// Store is a content-addressed result store rooted at a directory. It
// holds nothing but the path and every file lands by atomic rename, so
// concurrent writers, in one process or several, need no lock: objects
// have identical content by construction, and so do the results two
// manifests for one spec point at.
type Store struct {
	root string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"objects", "manifests"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("artifact: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Sum returns the store's content address for b: hex SHA-256.
func Sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// Canonical marshals v into the store's canonical JSON form. Struct
// fields keep declaration order and map keys are sorted by encoding/json,
// so equal values always produce equal bytes.
func Canonical(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("artifact: canonical marshal: %w", err)
	}
	return b, nil
}

func (s *Store) objectPath(digest string) string {
	return filepath.Join(s.root, "objects", digest[:2], digest[2:])
}

func (s *Store) manifestPath(specSHA string) string {
	return filepath.Join(s.root, "manifests", specSHA+".json")
}

// PutResult stores b under its own SHA-256 and returns the digest.
// Write-once: an existing object that holds b is kept as is, so putting
// bytes the store has writes nothing; one the disk changed under its
// address is rewritten, so putting its bytes again repairs it.
func (s *Store) PutResult(b []byte) (string, error) {
	digest := Sum(b)
	path := s.objectPath(digest)
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, b) {
		return digest, nil
	}
	if err := WriteAtomic(path, b); err != nil {
		return "", err
	}
	return digest, nil
}

// ErrCorrupt marks an object whose bytes no longer hash to its address.
var ErrCorrupt = errors.New("corrupt")

// GetResult returns the object addressed by digest. The bytes are hashed
// on the way out: an object the disk changed under its address is an
// error wrapping ErrCorrupt, never a result.
func (s *Store) GetResult(digest string) ([]byte, error) {
	if err := checkDigest(digest); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(s.objectPath(digest))
	if err != nil {
		return nil, fmt.Errorf("artifact: object %s: %w", digest, err)
	}
	if got := Sum(b); got != digest {
		return nil, corruptObject(digest, got)
	}
	return b, nil
}

func corruptObject(digest, got string) error {
	return fmt.Errorf("artifact: object %s hashes to %s: %w", digest, got, ErrCorrupt)
}

// HasResult reports whether the object addressed by digest exists.
func (s *Store) HasResult(digest string) bool {
	if checkDigest(digest) != nil {
		return false
	}
	_, err := os.Stat(s.objectPath(digest))
	return err == nil
}

// PutManifest records m under its spec hash.
// Write-once: re-putting an identical (spec, result) pair is a no-op, and
// a pair that disagrees with the stored one is reported as corruption —
// the same spec must always reproduce the same result digest.
func (s *Store) PutManifest(m Manifest) error {
	if err := checkDigest(m.SpecSHA256); err != nil {
		return err
	}
	if err := checkDigest(m.ResultSHA256); err != nil {
		return err
	}
	if prev, ok, err := s.GetManifest(m.SpecSHA256); err != nil {
		return err
	} else if ok {
		if prev.ResultSHA256 != m.ResultSHA256 {
			return fmt.Errorf("artifact: spec %s already maps to result %s, refusing to remap to %s (determinism violation or store corruption)",
				m.SpecSHA256, prev.ResultSHA256, m.ResultSHA256)
		}
		return nil
	}
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	return WriteAtomic(s.manifestPath(m.SpecSHA256), b)
}

// GetManifest returns the manifest for a spec hash, if present.
func (s *Store) GetManifest(specSHA string) (Manifest, bool, error) {
	if err := checkDigest(specSHA); err != nil {
		return Manifest{}, false, err
	}
	b, err := os.ReadFile(s.manifestPath(specSHA))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("artifact: manifest %s: %w", specSHA, err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("artifact: manifest %s: %w", specSHA, err)
	}
	return m, true, nil
}

// Manifests returns every stored manifest, sorted by spec hash.
func (s *Store) Manifests() ([]Manifest, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "manifests"))
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	var out []Manifest
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		m, ok, err := s.GetManifest(strings.TrimSuffix(name, ".json"))
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SpecSHA256 < out[j].SpecSHA256 })
	return out, nil
}

// Verify re-hashes the whole tree: every object's content must match its
// address, and every manifest must be named after its spec hash and point
// at an existing object. The manifests are the store's only spec→result
// map; nothing else at the root is read. It returns the first
// inconsistency found, or nil.
func (s *Store) Verify() error {
	objDir := filepath.Join(s.root, "objects")
	err := filepath.Walk(objDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(objDir, path)
		if err != nil {
			return err
		}
		parts := strings.Split(filepath.ToSlash(rel), "/")
		if len(parts) != 2 {
			return fmt.Errorf("artifact: stray file %s in objects/", rel)
		}
		want := parts[0] + parts[1]
		b, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		if got := Sum(b); got != want {
			return corruptObject(want, got)
		}
		return nil
	})
	if err != nil {
		return err
	}
	manifests, err := s.Manifests()
	if err != nil {
		return err
	}
	for _, m := range manifests {
		if err := checkDigest(m.SpecSHA256); err != nil {
			return err
		}
		if !s.HasResult(m.ResultSHA256) {
			return fmt.Errorf("artifact: manifest %s points at missing object %s", m.SpecSHA256, m.ResultSHA256)
		}
	}
	return nil
}

// WriteAtomic writes b to path via tmp+fsync+rename, then syncs path's
// directory, so a crash leaves either the complete file or nothing, and a
// write it acknowledged survives one: a rename is durable only once its
// directory is synced. A missing directory is created, and its parent
// synced for the same reason. The store and the experiment service (job
// records, run manifests) both persist through it.
func WriteAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		if err := syncDir(filepath.Dir(dir)); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("artifact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("artifact: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("artifact: %w", err)
	}
	return syncDir(dir)
}

// syncDir makes the entries of directory dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	return nil
}

func checkDigest(d string) error {
	if len(d) != 64 {
		return fmt.Errorf("artifact: bad digest %q", d)
	}
	if _, err := hex.DecodeString(d); err != nil {
		return fmt.Errorf("artifact: bad digest %q", d)
	}
	return nil
}

// GitRev returns the VCS revision stamped into the binary by the Go
// toolchain ("(modified)" appended for a dirty tree), or "unknown" when
// no build info is embedded (go test, plain go run of a file).
func GitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += " (modified)"
	}
	return rev
}

// KnobSnapshot captures every IC_* environment knob, the determinism-
// relevant runtime configuration a manifest must record.
func KnobSnapshot() map[string]string {
	out := map[string]string{}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "IC_") {
			continue
		}
		if i := strings.IndexByte(kv, '='); i > 0 {
			out[kv[:i]] = kv[i+1:]
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Now returns the RFC3339 UTC timestamp manifests use.
func Now() string { return time.Now().UTC().Format(time.RFC3339) }

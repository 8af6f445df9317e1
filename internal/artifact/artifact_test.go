package artifact

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"kind":"blackhole","result":{"sent":100}}`)
	digest, err := s.PutResult(body)
	if err != nil {
		t.Fatal(err)
	}
	if digest != Sum(body) {
		t.Fatalf("digest %s != Sum %s", digest, Sum(body))
	}
	got, err := s.GetResult(digest)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(body) {
		t.Fatalf("round trip mismatch: %q", got)
	}
	// Write-once: same content again lands on the same object.
	again, err := s.PutResult(body)
	if err != nil || again != digest {
		t.Fatalf("re-put: %s, %v", again, err)
	}
	if !s.HasResult(digest) {
		t.Fatal("HasResult false for stored object")
	}
	if s.HasResult(Sum([]byte("other"))) {
		t.Fatal("HasResult true for absent object")
	}
}

func TestManifestWriteOnce(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Sum([]byte("spec"))
	res, err := s.PutResult([]byte("result"))
	if err != nil {
		t.Fatal(err)
	}
	m := Manifest{SpecSHA256: spec, ResultSHA256: res, Seed: 7, GitRev: GitRev(), Shards: 1, CreatedAt: Now()}
	if err := s.PutManifest(m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetManifest(spec)
	if err != nil || !ok {
		t.Fatalf("GetManifest: %v ok=%v", err, ok)
	}
	if got.ResultSHA256 != res || got.Seed != 7 {
		t.Fatalf("manifest mismatch: %+v", got)
	}
	// Identical re-put is a no-op.
	if err := s.PutManifest(m); err != nil {
		t.Fatalf("identical re-put: %v", err)
	}
	// A spec remapping to a different result is corruption, not an update.
	other, err := s.PutResult([]byte("different result"))
	if err != nil {
		t.Fatal(err)
	}
	m.ResultSHA256 = other
	if err := s.PutManifest(m); err == nil {
		t.Fatal("remapping a spec to a new result must fail")
	}
}

// TestPutResultRepairsCorruptObject: putting bytes whose object the disk
// changed rewrites the object; putting bytes the store holds leaves the
// file as it is.
func TestPutResultRepairsCorruptObject(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("rendered tables")
	digest, err := s.PutResult(body)
	if err != nil {
		t.Fatal(err)
	}
	objPath := filepath.Join(dir, "objects", digest[:2], digest[2:])
	before, err := os.Stat(objPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutResult(body); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(objPath); err != nil || !os.SameFile(before, after) {
		t.Fatalf("re-putting intact bytes replaced the object (err %v)", err)
	}
	if err := os.WriteFile(objPath, []byte("rendered tablez"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetResult(digest); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetResult of a flipped object: %v, want ErrCorrupt", err)
	}
	if again, err := s.PutResult(body); err != nil || again != digest {
		t.Fatalf("re-put over a flipped object: %s, %v", again, err)
	}
	if got, err := s.GetResult(digest); err != nil || string(got) != string(body) {
		t.Fatalf("after the re-put: %q, %v; want %q", got, err, body)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("precious result bytes")
	digest, err := s.PutResult(body)
	if err != nil {
		t.Fatal(err)
	}
	spec := Sum([]byte("some spec"))
	if err := s.PutManifest(Manifest{SpecSHA256: spec, ResultSHA256: digest, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("clean store must verify: %v", err)
	}
	// Flip a byte in the object: Verify must notice.
	objPath := filepath.Join(dir, "objects", digest[:2], digest[2:])
	if err := os.WriteFile(objPath, []byte("tampered result bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Verify missed tampering: %v", err)
	}
	// Restore, then break the manifest→object link.
	if err := os.WriteFile(objPath, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("restored store must verify: %v", err)
	}
	if err := os.Remove(objPath); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err == nil || !strings.Contains(err.Error(), "missing object") {
		t.Fatalf("Verify missed dangling manifest: %v", err)
	}
}

// TestVerifyIgnoresLegacyIndex: the manifests are the store's only
// spec→result map. PutManifest writes no index, and the index.jsonl an
// older store left at its root is not read — even one that disagrees with
// the manifests and does not parse.
func TestVerifyIgnoresLegacyIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := s.PutResult([]byte("result"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutManifest(Manifest{SpecSHA256: Sum([]byte("spec")), ResultSHA256: digest, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(dir, "index.jsonl")
	if _, err := os.Stat(index); !os.IsNotExist(err) {
		t.Fatalf("PutManifest wrote an index (stat: %v)", err)
	}
	legacy := `{"spec":"` + Sum([]byte("another spec")) + `","result":"` + digest + "\"}\nnot json\n"
	if err := os.WriteFile(index, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify read the leftover index: %v", err)
	}
}

func TestManifestsSorted(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{"b", "a", "c"} {
		res, err := s.PutResult([]byte("result " + seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutManifest(Manifest{SpecSHA256: Sum([]byte(seed)), ResultSHA256: res, Shards: 1}); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := s.Manifests()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("want 3 manifests, got %d", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].SpecSHA256 >= ms[i].SpecSHA256 {
			t.Fatal("manifests not sorted by spec hash")
		}
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	type inner struct {
		B int `json:"b"`
		A int `json:"a"`
	}
	v := struct {
		M map[string]int `json:"m"`
		I inner          `json:"i"`
	}{M: map[string]int{"z": 1, "a": 2}, I: inner{B: 3, A: 4}}
	b1, err := Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("canonical form unstable: %s vs %s", b1, b2)
	}
	// Map keys sorted, struct fields in declaration order.
	want := `{"m":{"a":2,"z":1},"i":{"b":3,"a":4}}`
	if string(b1) != want {
		t.Fatalf("canonical form %s, want %s", b1, want)
	}
}

func TestKnobSnapshotFiltersPrefix(t *testing.T) {
	t.Setenv("IC_TEST_KNOB", "42")
	t.Setenv("NOT_A_KNOB", "x")
	snap := KnobSnapshot()
	if snap["IC_TEST_KNOB"] != "42" {
		t.Fatalf("snapshot missing IC_TEST_KNOB: %v", snap)
	}
	if _, ok := snap["NOT_A_KNOB"]; ok {
		t.Fatal("snapshot leaked a non-IC_ variable")
	}
}

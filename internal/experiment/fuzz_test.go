package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// strictDecode decodes b the way serve.handleSubmit decodes a request
// body: unknown fields rejected.
func strictDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzGridRequestDecode throws arbitrary bytes at the only wire format a
// scenario has. Whatever decodes strictly and passes Validate — what the
// service would queue — must enumerate without panicking to at most
// maxGridPoints replicas, and each replica's canonical bytes (its store
// key) must survive decode → Canonical byte for byte, or a resumed job
// would miss its own artifacts. Its point labels must be pairwise distinct
// (a repeated row or column would fold two cells into one), and every IC
// point's config must run at its row's level. Nothing is run: the property
// is about the boundary, and a fuzzed request may ask for days of
// simulation.
func FuzzGridRequestDecode(f *testing.F) {
	// A zero level and a repeated column: rejected, and a small mutation
	// away from a grid that repeats only one of them.
	edge := Fig7Grid(1, 2, true)
	edge.Levels, edge.Malicious = []int{0, 1}, []int{2, 2}
	for _, g := range []*GridRequest{
		Fig7Grid(1, 5, false), Fig8Grid(1, 5, false), CoverageGrid(1, 5, false), ChurnGrid(1, 5, false), edge,
	} {
		b, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"kind":"sensor","sensor":{"nodes":2000000000},"faults":["none"],"runs":1}`))
	f.Add([]byte(`{"kind":"blackhole","blackhole":{"nodes":50,"region":1000,"sim_time":1e308},"malicious":[0],"runs":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var g GridRequest
		if strictDecode(body, &g) != nil || g.Validate() != nil {
			return
		}
		points, err := g.Points()
		if err != nil {
			t.Fatalf("Validate accepted what Points refuses: %v", err)
		}
		if len(points) > maxGridPoints {
			t.Fatalf("%d points, more than %d", len(points), maxGridPoints)
		}
		labels := make(map[string]bool, len(points))
		for _, p := range points {
			if labels[p.Label] {
				t.Fatalf("two points labelled %q", p.Label)
			}
			labels[p.Label] = true
			var level int
			if _, err := fmt.Sscanf(p.Row, "IC, L=%d", &level); err != nil {
				continue
			}
			ic, l := false, 0
			if c := p.Spec.Blackhole; c != nil {
				ic, l = c.IC, c.L
			} else if c := p.Spec.Sensor; c != nil {
				ic, l = c.IC, c.L
			}
			if !ic || l != level {
				t.Fatalf("point %q runs IC=%v at L=%d", p.Label, ic, l)
			}
		}
		// Every point of a small grid, an even sample of a large one.
		step := max(1, len(points)/256)
		for i := 0; i < len(points); i += step {
			p := points[i]
			want, err := p.Spec.Canonical()
			if err != nil {
				t.Fatalf("point %q of an accepted grid has no canonical form: %v", p.Label, err)
			}
			var back ReplicaSpec
			if err := strictDecode(want, &back); err != nil {
				t.Fatalf("point %q: canonical bytes do not decode: %v\n%s", p.Label, err, want)
			}
			got, err := back.Canonical()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("point %q: canonical bytes changed across a decode (err %v):\n%s\nvs\n%s", p.Label, err, want, got)
			}
		}
	})
}

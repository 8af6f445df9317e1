package experiment

import (
	"bytes"
	"encoding/json"
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
// would miss its own artifacts. Nothing is run: the property is about the
// boundary, and a fuzzed request may ask for days of simulation.
func FuzzGridRequestDecode(f *testing.F) {
	for _, g := range []*GridRequest{
		Fig7Grid(1, 5, false), Fig8Grid(1, 5, false), CoverageGrid(1, 5, false), ChurnGrid(1, 5, false),
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

package faults

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// wireKeys lists the JSON keys of each object of a campaign's wire form;
// an accepted body may use no other (encoding/json matches keys under
// Unicode case folding, hence EqualFold below).
var wireKeys = map[string][]string{
	"":         {"name", "entries"},
	"entries":  {"fault", "dir", "params", "targets", "schedule"},
	"params":   {"p", "min_delay", "max_delay", "copies", "hold", "as"},
	"targets":  {"all", "nodes", "count"},
	"schedule": {"from", "to", "every", "for"},
}

// unknownKey walks the decoded body and returns the first key the wire
// form does not have ("" when there is none). field names the object
// being walked.
func unknownKey(field string, v any) string {
	switch v := v.(type) {
	case []any:
		for _, e := range v {
			if k := unknownKey(field, e); k != "" {
				return k
			}
		}
	case map[string]any:
		for key, sub := range v {
			known := ""
			for _, k := range wireKeys[field] {
				if strings.EqualFold(k, key) {
					known = k
				}
			}
			if known == "" {
				return field + "." + key
			}
			if k := unknownKey(known, sub); k != "" {
				return k
			}
		}
	}
	return ""
}

// FuzzCampaignParse throws arbitrary bytes at the second wire format that
// reaches a replica from outside the program: a campaign, as a file given
// to `icsweep campaign -campaign` or as a field of a request to the
// experiment service. Whatever Parse accepts must use only the wire form's
// keys, sit under every ceiling of validateEntry (copies, delays, instants,
// the least churn period — the numbers that size a loop or an event chain)
// and survive marshal → Parse → marshal byte for byte, or a stored spec
// would not name the campaign that ran. Nothing is applied or run.
func FuzzCampaignParse(f *testing.F) {
	// The eight presets of experiment.CoverageGrid, CI's mixed campaign and
	// the two requests that once passed.
	for _, spec := range []string{
		"clean", "blackhole:3", "grayhole:3:0.5", "drop:3:0.5",
		"corrupt:3:0.25", "spoof:3", "churn:3:30:10", "byzantine:3",
	} {
		c, err := ParsePreset(spec)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"ci-mixed","entries":[
		{"fault":"grayhole","params":{"p":0.5},"targets":{"count":2}},
		{"fault":"corrupt","params":{"p":0.25},"targets":{"count":2}},
		{"fault":"spoof","targets":{"nodes":[3]}}]}`))
	f.Add([]byte(`{"entries":[{"fault":"duplicate","params":{"copies":2000000000},"targets":{"all":true}}]}`))
	f.Add([]byte(`{"entries":[{"fault":"blackhole","targets":{"all":true},"schedule":{"every":1e-9,"for":1e-9}}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := Parse(body)
		if err != nil {
			return
		}
		var raw any
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&raw); err != nil {
			t.Fatalf("Parse accepted what encoding/json refuses: %v", err)
		}
		if k := unknownKey("", raw); k != "" {
			t.Fatalf("Parse accepted the unknown field %s", k)
		}
		for i, e := range c.Entries {
			p, w := e.Params, e.Schedule
			if p.Copies < 0 || p.Copies > maxCopies {
				t.Fatalf("entry %d: copies %d accepted", i, p.Copies)
			}
			for _, v := range []float64{p.MinDelay, p.MaxDelay, p.Hold, w.From, w.To, w.Every, w.For} {
				if !(v >= 0 && v <= maxSeconds) {
					t.Fatalf("entry %d: %g seconds accepted: %+v", i, v, e)
				}
			}
			if w.Every != 0 && w.Every < minEvery {
				t.Fatalf("entry %d: a churn period of %g s accepted", i, w.Every)
			}
		}
		first, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted campaign does not marshal: %v", err)
		}
		back, err := Parse(first)
		if err != nil {
			t.Fatalf("accepted campaign does not re-parse: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("campaign changed across marshal → Parse (err %v):\n%s\nvs\n%s", err, first, second)
		}
	})
}

package faults

import (
	"math"
	"strings"
	"testing"

	"innercircle/internal/sim"
)

func TestWindowActive(t *testing.T) {
	cases := []struct {
		w    Window
		now  sim.Time
		want bool
	}{
		{Window{}, 0, true},
		{Window{}, 1e6, true},
		{Window{From: 10}, 9.99, false},
		{Window{From: 10}, 10, true},
		{Window{To: 10}, 9.99, true},
		{Window{To: 10}, 10, false},
		{Window{From: 5, To: 10}, 7, true},
		{Window{Every: 10, For: 3}, 0, true},
		{Window{Every: 10, For: 3}, 2.99, true},
		{Window{Every: 10, For: 3}, 3, false},
		{Window{Every: 10, For: 3}, 9.99, false},
		{Window{Every: 10, For: 3}, 10, true},
		{Window{Every: 10, For: 3}, 12.5, true},
		{Window{From: 100, Every: 10, For: 3}, 5, false},
		{Window{From: 100, Every: 10, For: 3}, 101, true},
		{Window{From: 100, Every: 10, For: 3}, 105, false},
	}
	for _, c := range cases {
		if got := c.w.active(c.now); got != c.want {
			t.Errorf("%+v active(%v) = %v, want %v", c.w, c.now, got, c.want)
		}
	}
}

func TestSelectorResolve(t *testing.T) {
	order := []int{7, 3, 5}
	got, err := Selector{Count: 2}.resolve(10, order)
	if err != nil || len(got) != 2 || got[0] != 7 || got[1] != 3 {
		t.Fatalf("count selector = %v, %v", got, err)
	}
	if _, err := (Selector{Count: 4}).resolve(10, order); err == nil {
		t.Fatal("count beyond order should fail")
	}
	got, err = Selector{All: true}.resolve(3, nil)
	if err != nil || len(got) != 3 {
		t.Fatalf("all selector = %v, %v", got, err)
	}
	got, err = Selector{Nodes: []int{2, 0, 2}}.resolve(3, nil)
	if err != nil || len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Fatalf("nodes selector should dedup preserving order, got %v, %v", got, err)
	}
	if _, err := (Selector{Nodes: []int{3}}).resolve(3, nil); err == nil {
		t.Fatal("out-of-range node should fail")
	}
	got, err = Selector{Pred: func(i int) bool { return i%2 == 0 }}.resolve(5, nil)
	if err != nil || len(got) != 3 {
		t.Fatalf("pred selector = %v, %v", got, err)
	}
	if _, err := (Selector{}).resolve(3, nil); err == nil {
		t.Fatal("empty selector should fail")
	}
}

func TestValidateRejectsBadEntries(t *testing.T) {
	bad := []Campaign{
		{Entries: []Entry{{Fault: "gremlin", Targets: Selector{All: true}}}},
		{Entries: []Entry{{Fault: Drop, Targets: Selector{All: true}}}},                         // missing p
		{Entries: []Entry{{Fault: Drop, Params: Params{P: 1.5}, Targets: Selector{All: true}}}}, // p > 1
		{Entries: []Entry{{Fault: Delay, Targets: Selector{All: true}}}},                        // missing max_delay
		{Entries: []Entry{{Fault: Delay, Params: Params{MinDelay: 2, MaxDelay: 1}, Targets: Selector{All: true}}}},
		{Entries: []Entry{{Fault: Drop, Params: Params{P: 0.5}, Dir: "sideways", Targets: Selector{All: true}}}},
		{Entries: []Entry{{Fault: Blackhole, Dir: DirOut, Targets: Selector{All: true}}}}, // dir on non-wire fault
		{Entries: []Entry{{Fault: Reorder, Dir: DirBoth, Targets: Selector{All: true}}}},
		{Entries: []Entry{{Fault: Spoof, Dir: DirIn, Targets: Selector{All: true}}}},
		{Entries: []Entry{{Fault: Blackhole, Targets: Selector{All: true, Count: 2}}}}, // two selector fields
		{Entries: []Entry{{Fault: Blackhole, Targets: Selector{All: true}, Schedule: Window{From: 5, To: 3}}}},
		{Entries: []Entry{{Fault: Blackhole, Targets: Selector{All: true}, Schedule: Window{Every: 5, For: 6}}}},
		{Entries: []Entry{{Fault: Blackhole, Targets: Selector{All: true}, Schedule: Window{For: 6}}}},
		// The ceilings: each of these once passed and sized a loop or an
		// event chain (2·10⁹ emits per message, 2·10⁹ events per second).
		{Entries: []Entry{{Fault: Duplicate, Params: Params{Copies: 2000000000}, Targets: Selector{All: true}}}},
		{Entries: []Entry{{Fault: Duplicate, Params: Params{Copies: maxCopies + 1}, Targets: Selector{All: true}}}},
		{Entries: []Entry{{Fault: Blackhole, Targets: Selector{All: true}, Schedule: Window{Every: 1e-9, For: 1e-9}}}},
		{Entries: []Entry{{Fault: Crash, Targets: Selector{All: true}, Schedule: Window{Every: 1e300, For: 1}}}},
		{Entries: []Entry{{Fault: Crash, Targets: Selector{All: true}, Schedule: Window{Every: 1, For: math.NaN()}}}},
		{Entries: []Entry{{Fault: Delay, Params: Params{MinDelay: 1, MaxDelay: 1e300}, Targets: Selector{All: true}}}},
		{Entries: []Entry{{Fault: Delay, Params: Params{MinDelay: math.NaN(), MaxDelay: 1}, Targets: Selector{All: true}}}},
		{Entries: []Entry{{Fault: Reorder, Params: Params{Hold: math.Inf(1)}, Targets: Selector{All: true}}}},
		{Entries: []Entry{{Fault: Blackhole, Targets: Selector{All: true}, Schedule: Window{From: 1e300}}}},
		{Entries: []Entry{{Fault: Blackhole, Targets: Selector{All: true}, Schedule: Window{To: 1e300}}}},
		{Entries: []Entry{{Fault: Corrupt, Params: Params{P: math.NaN()}, Targets: Selector{All: true}}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("campaign %d should fail validation: %+v", i, c.Entries[0])
		}
	}
	// The ceilings themselves are in bounds.
	atCeiling := Campaign{Entries: []Entry{
		{Fault: Duplicate, Params: Params{Copies: maxCopies}, Targets: Selector{All: true}},
		{Fault: Delay, Params: Params{MinDelay: maxSeconds, MaxDelay: maxSeconds}, Targets: Selector{All: true}},
		{Fault: Blackhole, Targets: Selector{All: true}, Schedule: Window{From: 1, To: maxSeconds, Every: minEvery, For: minEvery}},
	}}
	if err := atCeiling.Validate(); err != nil {
		t.Errorf("campaign at its ceilings: %v", err)
	}
}

func TestParseJSON(t *testing.T) {
	c, err := Parse([]byte(`{
		"name": "mixed",
		"entries": [
			{"fault": "grayhole", "params": {"p": 0.5}, "targets": {"count": 3}},
			{"fault": "corrupt", "dir": "out", "params": {"p": 0.2}, "targets": {"nodes": [4, 7]},
			 "schedule": {"from": 60, "to": 240}},
			{"fault": "crash", "targets": {"nodes": [1]}, "schedule": {"every": 30, "for": 10}},
			{"fault": "spoof", "params": {"as": 0}, "targets": {"nodes": [2]}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "mixed" || len(c.Entries) != 4 {
		t.Fatalf("parsed %+v", c)
	}
	if c.Entries[0].Fault != Grayhole || c.Entries[0].Params.P != 0.5 || c.Entries[0].Targets.Count != 3 {
		t.Fatalf("entry 0 = %+v", c.Entries[0])
	}
	if c.Entries[3].Params.As == nil || *c.Entries[3].Params.As != 0 {
		t.Fatalf("spoof victim not parsed: %+v", c.Entries[3].Params)
	}
	if _, err := Parse([]byte(`{"entries": [{"fault": "drop", "probability": 1}]}`)); err == nil {
		t.Fatal("unknown fields should be rejected")
	}
	if _, err := Parse([]byte(`{"entries": [{"fault": "drop", "params": {"p": 2}, "targets": {"all": true}}]}`)); err == nil {
		t.Fatal("invalid campaigns should be rejected at parse time")
	}
}

func TestParsePreset(t *testing.T) {
	for spec, wantEntries := range map[string]int{
		"clean":          0,
		"blackhole:3":    1,
		"grayhole:2:0.5": 1,
		"drop:2:0.3":     1,
		"corrupt:1:0.5":  1,
		"spoof:2":        1,
		"byzantine:2":    1,
		"churn:4:60:20":  1,
	} {
		c, err := ParsePreset(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(c.Entries) != wantEntries {
			t.Fatalf("%s: %d entries, want %d", spec, len(c.Entries), wantEntries)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: preset should validate: %v", spec, err)
		}
	}
	for _, spec := range []string{"", "gremlin:1", "blackhole", "blackhole:x", "grayhole:1", "churn:1:10"} {
		if _, err := ParsePreset(spec); err == nil {
			t.Fatalf("%q should fail", spec)
		}
	}
}

func TestPresetNamesAreStable(t *testing.T) {
	// A campaign grid uses the name as the table column label.
	if c := BlackholePreset(3); c.Name != "blackhole-3" {
		t.Fatalf("name = %q", c.Name)
	}
	if c := GrayholePreset(2, 0.5); !strings.HasPrefix(c.Name, "grayhole-2") {
		t.Fatalf("name = %q", c.Name)
	}
	if c := BlackholePreset(0); len(c.Entries) != 0 {
		t.Fatal("zero attackers should produce a clean campaign")
	}
}

// Package faults is the deterministic, composable fault/attack injection
// subsystem. It sits between the protocol stack and the link/MAC layers
// and realizes the error and attack classes of the paper's threat model
// (§2): transient channel faults (message drop, delay, duplication,
// payload corruption, reordering), crash/recovery churn, and malicious
// behaviour (black-hole and gray-hole forwarding, Byzantine voting lies,
// identity spoofing on STS beacons).
//
// A scenario is a Campaign: a named list of (fault, params, targets,
// schedule) entries, declarable in Go or loadable from JSON. Apply wires
// a campaign into a concrete replica through a Fabric (see apply.go).
// Everything is driven by seeded, split RNG streams, so the same seed and
// campaign reproduce the same run bit for bit — campaigns are safe to
// share, read-only, across the parallel sweep workers.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"innercircle/internal/sim"
)

// Kind names a fault type.
type Kind string

// The fault catalogue. The first seven are wire faults, injected into a
// node's link-layer tap; the rest subvert a protocol entity directly.
const (
	// Drop discards messages with probability P.
	Drop Kind = "drop"
	// Delay holds messages for a uniform draw in [MinDelay, MaxDelay]
	// seconds before forwarding them.
	Delay Kind = "delay"
	// Duplicate re-emits each message Copies extra times.
	Duplicate Kind = "duplicate"
	// Corrupt flips one random bit in a signature-bearing field (or
	// applies the fabric's Mutate hook, e.g. to application payloads).
	Corrupt Kind = "corrupt"
	// Reorder holds a message until the next one overtakes it (or the
	// Hold deadline expires).
	Reorder Kind = "reorder"
	// Crash silences the node entirely — nothing in, nothing out — while
	// the schedule window is active; outside it the node recovers.
	Crash Kind = "crash"
	// Spoof rewrites outgoing STS beacons to impersonate another node,
	// with a forged far-future sequence number (a replay-counter attack).
	Spoof Kind = "spoof"
	// Blackhole switches the node's router into black-hole mode: forged
	// route replies, all transit traffic absorbed (§5.1 of the paper).
	Blackhole Kind = "blackhole"
	// Grayhole is a black hole that misbehaves only with probability P
	// per opportunity.
	Grayhole Kind = "grayhole"
	// Byzantine makes the node's voting service lie: it corrupts the
	// partial signature in every ack it sends (vote.Byzantine).
	Byzantine Kind = "byzantine"
)

// wire reports whether the fault is injected at the link-layer tap.
func (k Kind) wire() bool {
	switch k {
	case Drop, Delay, Duplicate, Corrupt, Reorder, Crash, Spoof:
		return true
	}
	return false
}

func (k Kind) known() bool {
	switch k {
	case Drop, Delay, Duplicate, Corrupt, Reorder, Crash, Spoof, Blackhole, Grayhole, Byzantine:
		return true
	}
	return false
}

// Dir says which side of a node's link a wire fault attacks.
type Dir string

// Directions. The empty Dir defaults to DirOut (DirBoth for crash).
const (
	DirOut  Dir = "out"
	DirIn   Dir = "in"
	DirBoth Dir = "both"
)

// Params carries per-kind knobs; unused fields are ignored.
type Params struct {
	// P is the per-message (drop, delay, duplicate, corrupt, reorder) or
	// per-opportunity (grayhole) probability. Defaults to 1 where
	// optional; required for drop and grayhole.
	P float64 `json:"p,omitempty"`
	// MinDelay and MaxDelay bound the injected latency, in seconds.
	MinDelay float64 `json:"min_delay,omitempty"`
	MaxDelay float64 `json:"max_delay,omitempty"`
	// Copies is how many extra copies a duplicate fault emits (default 1).
	Copies int `json:"copies,omitempty"`
	// Hold caps how long a reorder fault waits for an overtaking message
	// before releasing the held one, in seconds (default 0.1).
	Hold float64 `json:"hold,omitempty"`
	// As is the node a spoof fault impersonates; nil draws a fresh victim
	// per beacon.
	As *int `json:"as,omitempty"`
}

// Window schedules a fault. The zero value is always active. From and To
// bound activity in seconds of virtual time (To = 0 means forever);
// Every/For add periodic churn: starting at From, the fault is active for
// the first For seconds of each Every-second cycle. Windowed router
// faults schedule kernel events indefinitely, so drive such runs with
// Kernel.Run(until) rather than draining the queue.
type Window struct {
	From  float64 `json:"from,omitempty"`
	To    float64 `json:"to,omitempty"`
	Every float64 `json:"every,omitempty"`
	For   float64 `json:"for,omitempty"`
}

// active reports whether the window covers virtual time now.
func (w Window) active(now sim.Time) bool {
	t := float64(now)
	if t < w.From {
		return false
	}
	if w.To > 0 && t >= w.To {
		return false
	}
	if w.Every > 0 {
		return math.Mod(t-w.From, w.Every) < w.For
	}
	return true
}

// immediate reports whether the window is "on from the start, no churn" —
// the case Apply activates synchronously, exactly like a hand-wired
// attacker.
func (w Window) immediate() bool { return w.From == 0 && w.Every == 0 }

// Selector picks the nodes an entry attacks. Exactly one field must be
// set.
type Selector struct {
	// All selects every node.
	All bool `json:"all,omitempty"`
	// Nodes lists explicit node indices.
	Nodes []int `json:"nodes,omitempty"`
	// Count selects the first Count nodes of the fabric's attacker order
	// (the experiment's placement permutation) — how the legacy
	// black-hole sweep picks its malicious nodes.
	Count int `json:"count,omitempty"`
	// Pred selects nodes programmatically; not serializable.
	Pred func(node int) bool `json:"-"`
}

func (s Selector) validate() error {
	set := 0
	if s.All {
		set++
	}
	if len(s.Nodes) > 0 {
		set++
	}
	if s.Count > 0 {
		set++
	}
	if s.Pred != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("faults: selector must set exactly one of all/nodes/count/pred, got %d", set)
	}
	return nil
}

// resolve returns the selected node indices in deterministic order. order
// is the fabric's attacker order (nil means 0..n-1).
func (s Selector) resolve(n int, order []int) ([]int, error) {
	switch {
	case s.All:
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	case len(s.Nodes) > 0:
		seen := make(map[int]bool, len(s.Nodes))
		out := make([]int, 0, len(s.Nodes))
		for _, i := range s.Nodes {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("faults: target node %d out of range [0,%d)", i, n)
			}
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
		return out, nil
	case s.Count > 0:
		if order == nil {
			order = make([]int, n)
			for i := range order {
				order[i] = i
			}
		}
		if s.Count > len(order) {
			return nil, fmt.Errorf("faults: count %d exceeds the %d selectable nodes", s.Count, len(order))
		}
		return append([]int(nil), order[:s.Count]...), nil
	case s.Pred != nil:
		var out []int
		for i := 0; i < n; i++ {
			if s.Pred(i) {
				out = append(out, i)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("faults: empty selector")
}

// Entry is one (fault, params, targets, schedule) line of a campaign.
type Entry struct {
	Fault    Kind     `json:"fault"`
	Dir      Dir      `json:"dir,omitempty"`
	Params   Params   `json:"params,omitempty"`
	Targets  Selector `json:"targets"`
	Schedule Window   `json:"schedule,omitempty"`
}

// dir returns the entry's effective direction.
func (e Entry) dir() Dir {
	if e.Fault == Crash {
		return DirBoth
	}
	if e.Dir == "" {
		return DirOut
	}
	return e.Dir
}

// Campaign is a named, declarative fault scenario. Campaigns are
// read-only once built: Apply never mutates one, so a single Campaign may
// be shared across parallel replicas.
type Campaign struct {
	Name    string  `json:"name"`
	Entries []Entry `json:"entries"`
}

// CountBudget returns the number of attacker-order nodes the campaign's
// Count selectors claim. Count entries all resolve from the head of the
// same order — they overlap rather than accumulate — so the claim is the
// maximum Count across entries. Apply fails exactly when this budget
// exceeds the order's length; callers can use CountBudget to reject such
// campaigns before building a replica.
func (c *Campaign) CountBudget() int {
	budget := 0
	for _, e := range c.Entries {
		if e.Targets.Count > budget {
			budget = e.Targets.Count
		}
	}
	return budget
}

// Validate checks every entry. It is called by Apply; campaigns built by
// hand can call it early for better error locality.
func (c *Campaign) Validate() error {
	for i, e := range c.Entries {
		if err := validateEntry(e); err != nil {
			return fmt.Errorf("faults: campaign %q entry %d (%s): %w", c.Name, i, e.Fault, err)
		}
	}
	return nil
}

// Ceilings on what a campaign may ask for, in the style of
// internal/experiment/grid.go's: a campaign arrives as a few hundred bytes
// of JSON (a file, or a field of a request to the experiment service)
// whatever it asks for, so every number that sizes a loop or an event
// chain is checked to be a number, not negative and under its ceiling
// before a replica is built. They sit well above anything documented.
const (
	// maxCopies bounds the extra copies a duplicate fault emits: the
	// injector runs the rest of the tap chain once per copy, per message;
	// the README documents 1.
	maxCopies = 100
	// maxSeconds bounds every delay and instant, in virtual seconds: it is
	// the experiment layer's ceiling on a run's sim time, so a larger value
	// names a moment no run reaches.
	maxSeconds = 1e6
	// minEvery is the least period of a churning window. A windowed router
	// fault schedules two kernel events per cycle for as long as the run
	// lasts, so the period bounds events per virtual second, as
	// mobility's 1 ms minimum leg does.
	minEvery = 1e-3
)

func validateEntry(e Entry) error {
	if !e.Fault.known() {
		return fmt.Errorf("unknown fault kind %q", e.Fault)
	}
	if err := e.Targets.validate(); err != nil {
		return err
	}
	switch e.Dir {
	case "", DirOut, DirIn, DirBoth:
	default:
		return fmt.Errorf("invalid dir %q", e.Dir)
	}
	if !e.Fault.wire() && e.Dir != "" {
		return fmt.Errorf("dir applies only to wire faults")
	}
	p := e.Params
	switch e.Fault {
	case Drop, Grayhole:
		if p.P <= 0 || p.P > 1 {
			return fmt.Errorf("p must be in (0,1], got %g", p.P)
		}
	case Delay:
		if p.MaxDelay <= 0 || p.MinDelay < 0 || p.MinDelay > p.MaxDelay {
			return fmt.Errorf("need 0 <= min_delay <= max_delay, max_delay > 0 (got %g..%g)", p.MinDelay, p.MaxDelay)
		}
	case Reorder:
		if e.Dir == DirBoth {
			return fmt.Errorf("reorder holds per-direction state; use two entries instead of dir=both")
		}
	case Spoof:
		if e.Dir == DirIn || e.Dir == DirBoth {
			return fmt.Errorf("spoof is outbound-only")
		}
		if p.As != nil && *p.As < 0 {
			return fmt.Errorf("as must be a node index, got %d", *p.As)
		}
	}
	if !(p.P >= 0 && p.P <= 1) { // written so that NaN fails
		return fmt.Errorf("p must be in [0,1], got %g", p.P)
	}
	if p.Copies < 0 {
		return fmt.Errorf("copies must be >= 0, got %d", p.Copies)
	}
	if p.Hold < 0 {
		return fmt.Errorf("hold must be >= 0, got %g", p.Hold)
	}
	w := e.Schedule
	if w.From < 0 || w.To < 0 || (w.To > 0 && w.To <= w.From) {
		return fmt.Errorf("schedule needs 0 <= from < to (got from=%g to=%g)", w.From, w.To)
	}
	if w.Every < 0 || w.For < 0 || (w.Every > 0 && (w.For <= 0 || w.For > w.Every)) {
		return fmt.Errorf("churn needs 0 < for <= every (got every=%g for=%g)", w.Every, w.For)
	}
	if w.Every == 0 && w.For > 0 {
		return fmt.Errorf("for without every")
	}
	if p.Copies > maxCopies {
		return fmt.Errorf("copies must be at most %d, got %d", maxCopies, p.Copies)
	}
	for _, d := range []struct {
		name string
		v    float64
	}{
		{"min_delay", p.MinDelay}, {"max_delay", p.MaxDelay}, {"hold", p.Hold},
		{"from", w.From}, {"to", w.To}, {"every", w.Every}, {"for", w.For},
	} {
		if !(d.v <= maxSeconds) { // written so that NaN fails
			return fmt.Errorf("%s must be at most %g seconds, got %g", d.name, float64(maxSeconds), d.v)
		}
	}
	if w.Every > 0 && w.Every < minEvery {
		return fmt.Errorf("every must be 0 or at least %g seconds, got %g", minEvery, w.Every)
	}
	return nil
}

// Parse decodes a campaign from JSON, rejecting unknown fields, and
// validates it.
func Parse(data []byte) (Campaign, error) {
	var c Campaign
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Campaign{}, fmt.Errorf("faults: parse campaign: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Campaign{}, err
	}
	return c, nil
}

// Load reads and parses a campaign JSON file.
func Load(path string) (Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Campaign{}, fmt.Errorf("faults: %w", err)
	}
	c, err := Parse(data)
	if err != nil {
		return Campaign{}, fmt.Errorf("faults: %s: %w", path, err)
	}
	return c, nil
}

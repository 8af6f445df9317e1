package scenario

import (
	"strings"
	"testing"

	"innercircle/internal/sts"
	"innercircle/internal/vote"
)

// icSpec is a small runnable inner-circle spec for churn tests.
func icSpec() *Spec {
	s := validSpec()
	s.SimTime = 10
	s.Stack.IC = true
	s.Stack.STS = sts.Config{Period: 0.9, Delta: 2, Authenticate: true, BeaconBaseBytes: 28}
	s.Stack.Vote = vote.Config{Mode: vote.Deterministic, L: 2, RoundTimeout: 0.5, Retries: 1}
	s.Stack.MaxL = 3
	return s
}

func TestChurnValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(s *Spec)
		wantErr string
	}{
		{"nil churn", func(s *Spec) { s.Churn = nil }, ""},
		{"zero churn without IC", func(s *Spec) { s.Stack.IC = false; s.Churn = &Churn{} }, ""},
		{"events without IC", func(s *Spec) {
			s.Stack.IC = false
			s.Churn = &Churn{CrashRejoin: 1}
		}, "requires the inner circle"},
		{"valid schedule", func(s *Spec) { s.Churn = &Churn{CrashRejoin: 2, Leaves: 1} }, ""},
		{"bad policy", func(s *Spec) { s.Churn = &Churn{CrashRejoin: 1, Reshare: "sometimes"} }, "unknown reshare policy"},
		{"interval policy without interval", func(s *Spec) {
			s.Churn = &Churn{CrashRejoin: 1, Reshare: ReshareEvery}
		}, "reshare_interval"},
		{"negative counts", func(s *Spec) { s.Churn = &Churn{Leaves: -1} }, "negative churn event"},
		{"negative times", func(s *Spec) { s.Churn = &Churn{CrashRejoin: 1, Downtime: -2} }, "negative churn times"},
		{"all nodes protected", func(s *Spec) {
			s.Churn = &Churn{CrashRejoin: 1, Protect: 10}
		}, "protects all"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := icSpec()
			tc.mutate(s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestChurnRunDeterministic: a churn replica is reproducible, reports its
// lifecycle counters, and is forced onto a single kernel even when the
// spec requests shards.
func TestChurnRunDeterministic(t *testing.T) {
	run := func(shards int) *Result {
		s := icSpec()
		s.Shards = shards
		s.Churn = &Churn{CrashRejoin: 2, Leaves: 1, Start: 2, Window: 4, Downtime: 1}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b, sharded := run(0), run(0), run(4)
	if a.Counter(CtrChurnEvents) == 0 {
		t.Fatal("no churn events took effect")
	}
	if a.Counter(CtrChurnReshares) == 0 {
		t.Fatal("event policy executed no reshares")
	}
	if a.Gauge(GaugeMembershipEpoch) == 0 {
		t.Fatal("membership epoch never advanced")
	}
	if a.Counters.String() != b.Counters.String() || a.Gauges.String() != b.Gauges.String() {
		t.Fatalf("same seed diverged:\n%s | %s\nvs\n%s | %s", a.Counters, a.Gauges, b.Counters, b.Gauges)
	}
	if sharded.Shards != 1 {
		t.Fatalf("churn replica executed with %d shards", sharded.Shards)
	}
	if a.Counters.String() != sharded.Counters.String() || a.Gauges.String() != sharded.Gauges.String() {
		t.Fatalf("shard request changed churn results:\n%s | %s\nvs\n%s | %s",
			a.Counters, a.Gauges, sharded.Counters, sharded.Gauges)
	}
}

// TestChurnOffMatchesNoChurn: churn disabled — by a nil field or a zero
// schedule — runs byte-identically to a spec that predates the churn axis.
// The churn=0 sweep column is the seed sweep.
func TestChurnOffMatchesNoChurn(t *testing.T) {
	run := func(mutate func(s *Spec)) *Result {
		s := icSpec()
		mutate(s)
		res, err := Run(s)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	base := run(func(s *Spec) {})
	zero := run(func(s *Spec) { s.Churn = &Churn{} })
	if base.Counters.String() != zero.Counters.String() || base.Gauges.String() != zero.Gauges.String() {
		t.Fatalf("zero schedule diverged from the churn-free replica:\n%s | %s\nvs\n%s | %s",
			base.Counters, base.Gauges, zero.Counters, zero.Gauges)
	}
}

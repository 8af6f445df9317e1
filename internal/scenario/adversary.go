package scenario

import (
	"fmt"

	"innercircle/internal/faults"
)

// Adversary injects faults and attacks into a built replica.
type Adversary interface {
	// Budget returns how many nodes of the attacker-selection order the
	// adversary claims. Spec.Validate rejects a scenario whose traffic
	// reservation plus adversary budget exceeds the population — the
	// classic "connections + attackers > nodes" misconfiguration.
	Budget(n int) (int, error)
	// Apply wires the adversary into the replica. order is the
	// attacker-selection order (the traffic plan's non-endpoint nodes;
	// nil means 0..N-1).
	Apply(env *Env, order []int) error
}

// CampaignAdversary runs a declarative fault campaign (internal/faults)
// against the replica. The fabric wiring — link taps, router and vote
// control surfaces, the payload-corruption hook — is assembled once here
// from the Env, so scenarios never hand-wire a faults.Fabric. The runner
// reports the campaign's coverage in Result.Faults.
type CampaignAdversary struct {
	Campaign *faults.Campaign
}

// Budget implements Adversary: the campaign's Count selectors all draw
// from the head of the attacker order, so the claim is their maximum.
func (a CampaignAdversary) Budget(int) (int, error) {
	if a.Campaign == nil {
		return 0, fmt.Errorf("scenario: campaign adversary needs a campaign")
	}
	if err := a.Campaign.Validate(); err != nil {
		return 0, err
	}
	return a.Campaign.CountBudget(), nil
}

// Apply implements Adversary.
func (a CampaignAdversary) Apply(env *Env, order []int) error {
	applied, err := faults.Apply(faults.Fabric{
		K:     env.K(),
		RNG:   env.seed,
		N:     env.Spec.Nodes,
		Order: order,
		Link: func(i int) faults.LinkPort {
			return env.Net.Nodes[i].Link
		},
		Router: env.routerCtl,
		Vote: func(i int) faults.VoteCtl {
			if env.Net.Nodes[i].Vote == nil {
				return nil
			}
			return env.Net.Nodes[i].Vote
		},
		Mutate: env.mutate,
	}, a.Campaign)
	if err != nil {
		return err
	}
	env.campaign = applied
	return nil
}

// Coverage is a fault campaign's neutralization coverage.
type Coverage struct {
	Injected   uint64 // attack/fault actions taken
	Suppressed uint64 // neutralized at the protocol level
	Leaked     uint64 // corruption that reached a sink
}

// coverage reads the coverage of the campaign applied to env, after the
// run: injections from the fault report, suppressions from the protocol
// stacks, leaks from the sink tally.
func coverage(env *Env) Coverage {
	c := Coverage{Injected: env.campaign.Report().TotalInjected(), Leaked: uint64(env.Sink.Corrupt)}
	for _, nd := range env.Net.Nodes {
		if nd.Intercept != nil {
			c.Suppressed += nd.Intercept.Stats.SuppressedSuspect + nd.Intercept.Stats.SuppressedBadSig
		}
		if nd.STS != nil {
			c.Suppressed += nd.STS.Stats.BeaconsRejected
		}
		if nd.Vote != nil {
			c.Suppressed += nd.Vote.Stats.PartialsRejected + nd.Vote.Stats.AgreedInvalid
		}
	}
	return c
}

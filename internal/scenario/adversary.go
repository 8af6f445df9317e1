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
	// nil means 0..N-1). The returned Harvester, if any, folds the
	// adversary's coverage counters into the Result after the run.
	Apply(env *Env, order []int) (Harvester, error)
}

// CampaignAdversary runs a declarative fault campaign (internal/faults)
// against the replica. The fabric wiring — link taps, router and vote
// control surfaces, the payload-corruption hook — is assembled once here
// from the Env, so scenarios never hand-wire a faults.Fabric.
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
func (a CampaignAdversary) Apply(env *Env, order []int) (Harvester, error) {
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
		return nil, err
	}
	return campaignCoverage{applied: applied}, nil
}

// campaignCoverage folds a campaign's neutralization coverage into the
// Result: injections from the fault report, suppressions from the
// protocol stacks, leaks from the sink tally.
type campaignCoverage struct {
	applied *faults.Applied
}

// Harvest implements Harvester.
func (c campaignCoverage) Harvest(env *Env, res *Result) {
	res.Counters.Add(CtrFaultsInjected, c.applied.Report().TotalInjected())
	var suppressed uint64
	for _, nd := range env.Net.Nodes {
		if nd.Intercept != nil {
			suppressed += nd.Intercept.Stats.SuppressedSuspect + nd.Intercept.Stats.SuppressedBadSig
		}
		if nd.STS != nil {
			suppressed += nd.STS.Stats.BeaconsRejected
		}
		if nd.Vote != nil {
			suppressed += nd.Vote.Stats.PartialsRejected + nd.Vote.Stats.AgreedInvalid
		}
	}
	res.Counters.Add(CtrFaultsSuppressed, suppressed)
	res.Counters.Add(CtrFaultsLeaked, uint64(env.Sink.Corrupt))
}

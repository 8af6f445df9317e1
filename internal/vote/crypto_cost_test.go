package vote

import (
	"testing"

	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// jouleCounter is a test EnergySink.
type jouleCounter struct{ j float64 }

func (c *jouleCounter) AddEnergy(j float64) { c.j += j }

func TestCryptoProfilesOrdering(t *testing.T) {
	sw, hw := SoftwareCrypto(), HardwareCrypto()
	if !(hw.SignDelay < sw.SignDelay && hw.VerifyDelay < sw.VerifyDelay) {
		t.Fatal("hardware crypto should be faster than software")
	}
	if !(hw.SignEnergy < sw.SignEnergy/50) {
		t.Fatalf("hardware sign energy %.6f J not ~100x below software %.6f J",
			hw.SignEnergy, sw.SignEnergy)
	}
	if !Instant().zero() {
		t.Fatal("Instant() is not the zero profile")
	}
	if sw.zero() {
		t.Fatal("software profile reads as zero")
	}
}

// cryptoNet builds the clique harness with a crypto profile installed on
// every service.
func cryptoNet(t *testing.T, profile CryptoProfile) (*voteNet, []*jouleCounter, *int) {
	t.Helper()
	agreed := new(int)
	net := buildVote(t, 4, detConfig(2), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(AgreedMsg) { *agreed++ },
		}
	})
	sinks := make([]*jouleCounter, len(net.svcs))
	for i, svc := range net.svcs {
		sinks[i] = &jouleCounter{}
		svc.deps.Crypto = profile
		svc.deps.Energy = sinks[i]
	}
	return net, sinks, agreed
}

func TestCryptoDelaySlowsRoundButCompletes(t *testing.T) {
	fast, _, fastAgreed := cryptoNet(t, Instant())
	if err := fast.svcs[0].Propose([]byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := fast.k.RunAll(); err != nil {
		t.Fatal(err)
	}
	fastDone := fast.k.Now()

	slow, _, slowAgreed := cryptoNet(t, SoftwareCrypto())
	if err := slow.svcs[0].Propose([]byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := slow.k.RunAll(); err != nil {
		t.Fatal(err)
	}
	slowDone := slow.k.Now()

	if *fastAgreed == 0 || *slowAgreed == 0 {
		t.Fatalf("agreement missing: fast=%d slow=%d", *fastAgreed, *slowAgreed)
	}
	// Software crypto adds at least SignDelay (voter) + Sign+Combine
	// (center) ≈ 120 ms to the round.
	if slowDone < fastDone+0.1 {
		t.Fatalf("software crypto round finished at %v vs instant %v — no modeled latency", slowDone, fastDone)
	}
}

func TestCryptoEnergyCharged(t *testing.T) {
	net, sinks, agreed := cryptoNet(t, SoftwareCrypto())
	if err := net.svcs[0].Propose([]byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if *agreed == 0 {
		t.Fatal("no agreement")
	}
	// The center paid sign + combine.
	want := SoftwareCrypto().SignEnergy + SoftwareCrypto().CombineEnergy
	if sinks[0].j < want {
		t.Fatalf("center charged %.6f J, want >= %.6f", sinks[0].j, want)
	}
	// Voters paid at least one signature (ack) and one verification
	// (agreed message).
	voterMin := SoftwareCrypto().SignEnergy
	voters := 0
	for i := 1; i < len(sinks); i++ {
		if sinks[i].j >= voterMin {
			voters++
		}
	}
	if voters < 2 {
		t.Fatalf("only %d voters were charged signing energy", voters)
	}
}

func TestInstantProfileChargesNothing(t *testing.T) {
	net, sinks, agreed := cryptoNet(t, Instant())
	if err := net.svcs[0].Propose([]byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if *agreed == 0 {
		t.Fatal("no agreement")
	}
	for i, s := range sinks {
		if s.j != 0 {
			t.Fatalf("node %d charged %.6f J under the Instant profile", i, s.j)
		}
	}
}

func TestRoundTimeoutAccommodatesCryptoDelay(t *testing.T) {
	// A timeout shorter than the crypto path still succeeds thanks to the
	// retry budget — but verify the interaction is sane: with generous
	// timeout there is exactly one round.
	net, _, agreed := cryptoNet(t, HardwareCrypto())
	if err := net.svcs[0].Propose([]byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(sim.Time(5)); err != nil {
		t.Fatal(err)
	}
	if *agreed == 0 {
		t.Fatal("hardware-crypto round failed")
	}
	if net.svcs[0].Stats.RoundsFailed != 0 {
		t.Fatalf("stats = %+v", net.svcs[0].Stats)
	}
}

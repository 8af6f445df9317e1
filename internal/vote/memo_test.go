package vote

import (
	"bytes"
	"slices"
	"testing"

	"innercircle/internal/crypto/sigcache"
	"innercircle/internal/crypto/thresh"
	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// runAgreementRound drives one deterministic round over n nodes under the
// hardware crypto cost profile, with an optional shared verification memo,
// and returns each node's agreed message, the summed memo counters, and the
// modeled crypto energy charged to each node.
func runAgreementRound(t *testing.T, memo *sigcache.Cache) ([]AgreedMsg, uint64, uint64, []float64) {
	t.Helper()
	agreed := make([]AgreedMsg, 5)
	net := buildVote(t, 5, detConfig(2), simDealer(), func(i int) Callbacks {
		return Callbacks{
			Check:    func(link.NodeID, []byte) bool { return true },
			OnAgreed: func(a AgreedMsg) { agreed[i] = a },
		}
	})
	sinks := make([]jouleCounter, len(net.svcs))
	for i, svc := range net.svcs {
		svc.deps.Memo = memo
		svc.deps.Crypto = HardwareCrypto()
		svc.deps.Energy = &sinks[i]
	}
	if err := net.svcs[0].Propose([]byte("route-to-D")); err != nil {
		t.Fatal(err)
	}
	if err := net.k.Run(2); err != nil {
		t.Fatal(err)
	}
	var hits, misses uint64
	for i, svc := range net.svcs {
		if err := svc.VerifyAgreed(agreed[i]); err != nil {
			t.Fatalf("node %d verify: %v", i, err)
		}
		hits += svc.Stats.MemoHits
		misses += svc.Stats.MemoMisses
	}
	joules := make([]float64, len(sinks))
	for i := range sinks {
		joules[i] = sinks[i].j
	}
	return agreed, hits, misses, joules
}

// TestMemoDoesNotChangeOutcomes runs the same round with and without the
// verification memo: identical agreed messages and identical modeled crypto
// cost per node (the memo caches verdicts, never the charge — which is why
// sweep tables cannot depend on it), and with the memo shared across a
// replica's nodes the repeated checks of the same flooded signatures must
// produce hits.
func TestMemoDoesNotChangeOutcomes(t *testing.T) {
	plain, hits0, misses0, joules0 := runAgreementRound(t, nil)
	if hits0 != 0 || misses0 != 0 {
		t.Fatalf("nil memo counted hits=%d misses=%d", hits0, misses0)
	}
	memo := sigcache.New(0)
	cached, hits1, misses1, joules1 := runAgreementRound(t, memo)
	for i := range plain {
		if plain[i].Center != cached[i].Center || plain[i].Seq != cached[i].Seq ||
			plain[i].L != cached[i].L || !bytes.Equal(plain[i].Value, cached[i].Value) {
			t.Fatalf("node %d: memo changed outcome: %+v vs %+v", i, plain[i], cached[i])
		}
		if !bytes.Equal(plain[i].Sig.Data, cached[i].Sig.Data) {
			t.Fatalf("node %d: memo changed signature bytes", i)
		}
	}
	if !slices.Equal(joules0, joules1) || slices.Max(joules1) == 0 {
		t.Fatalf("memo changed the modeled crypto energy charged per node: nil memo %v, shared memo %v", joules0, joules1)
	}
	if misses1 == 0 {
		t.Fatal("memo run performed no real verifications")
	}
	if hits1 == 0 {
		t.Fatal("shared memo saw no repeated verifications in a flooded round")
	}
	if memo.Len() == 0 {
		t.Fatal("memo is empty after the round")
	}
}

// TestMemoCachesRejections checks that a failing verdict is memoized too:
// a tampered agreed message is rejected from the cache on re-check.
func TestMemoCachesRejections(t *testing.T) {
	memo := sigcache.New(0)
	agreed, _, _, _ := runAgreementRound(t, memo)
	net := buildVote(t, 5, detConfig(2), simDealer(), func(int) Callbacks { return Callbacks{} })
	svc := net.svcs[1]
	svc.deps.Memo = memo
	bad := agreed[0]
	bad.Value = append([]byte(nil), bad.Value...)
	bad.Value[0] ^= 1
	if err := svc.VerifyAgreed(bad); err == nil {
		t.Fatal("tampered message verified")
	}
	before := svc.Stats.MemoHits
	if err := svc.VerifyAgreed(bad); err == nil {
		t.Fatal("tampered message verified from memo")
	}
	if svc.Stats.MemoHits != before+1 {
		t.Fatalf("second rejection not served from memo: hits %d -> %d", before, svc.Stats.MemoHits)
	}
}

// TestMemoKeysPartialProof checks that a partial's proof is part of its
// memo key: after an honest threshold-RSA partial is verified and
// memoized, the same x_i under an altered proof is verified afresh and
// rejected, never served the honest verdict.
func TestMemoKeysPartialProof(t *testing.T) {
	gk, signers, err := (&thresh.RSADealer{Bits: 512, Rand: sim.NewRNG(11)}).Deal(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	dig := appendDigest(nil, 1, 1, 1, []byte("route-to-D"))
	p, err := signers[0].PartialSign(dig)
	if err != nil {
		t.Fatal(err)
	}
	forged := p
	forged.Proof = append([]byte(nil), p.Proof...)
	forged.Proof[len(forged.Proof)-1] ^= 1
	s := &Service{deps: Deps{Memo: sigcache.New(0)}}
	if !s.verifyPartial(gk, dig, p) {
		t.Fatal("honest partial rejected")
	}
	if s.verifyPartial(gk, dig, forged) {
		t.Fatal("honest x_i with an altered proof verified")
	}
	if s.Stats.MemoHits != 0 || s.Stats.MemoMisses != 2 {
		t.Fatalf("memo hits %d, misses %d; want 0 and 2", s.Stats.MemoHits, s.Stats.MemoMisses)
	}
	if !s.verifyPartial(gk, dig, p) || s.Stats.MemoHits != 1 {
		t.Fatalf("honest partial not served from the memo: hits %d", s.Stats.MemoHits)
	}
}

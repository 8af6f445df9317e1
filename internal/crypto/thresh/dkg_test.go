package thresh

import (
	"bytes"
	"reflect"
	"testing"
)

func signWith(t *testing.T, gk GroupKey, signers []Signer, idx []int, msg []byte) Signature {
	t.Helper()
	var partials []Partial
	for _, i := range idx {
		s := signers[i-1]
		if s == nil {
			t.Fatalf("participant %d has no signer", i)
		}
		p, err := s.PartialSign(msg)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	sig, err := gk.Combine(msg, partials)
	if err != nil {
		t.Fatalf("combine: %v", err)
	}
	if err := gk.Verify(msg, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return sig
}

func TestDKGPrimeIsPrime(t *testing.T) {
	if !dkgPrime.ProbablyPrime(64) {
		t.Fatal("dkgPrime is not prime")
	}
	if dkgPrime.BitLen() != 256 {
		t.Fatalf("dkgPrime is %d bits, want 256", dkgPrime.BitLen())
	}
}

// TestDKGHappyPath pins the acceptance criterion: a DKG-established key
// signs, combines, and verifies through exactly the same GroupKey path as
// a dealer-dealt key, with every participant qualified.
func TestDKGHappyPath(t *testing.T) {
	for name, g := range dealers() {
		t.Run(name, func(t *testing.T) {
			res, err := g.DKG(DKGConfig{K: 2, N: 5})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Blamed) != 0 || len(res.Silent) != 0 || res.Complaints != 0 {
				t.Fatalf("honest run produced blamed=%v silent=%v complaints=%d",
					res.Blamed, res.Silent, res.Complaints)
			}
			for i, s := range res.Signers {
				if s == nil {
					t.Fatalf("signer %d missing", i+1)
				}
				if s.Index() != i+1 {
					t.Fatalf("signer %d has index %d", i+1, s.Index())
				}
			}
			signWith(t, res.Key, res.Signers, []int{1, 3, 5}, []byte("dkg happy"))
			if ep := res.Key.Epoch(); ep != 0 {
				t.Fatalf("fresh DKG key at epoch %d", ep)
			}
		})
	}
}

// TestDKGStubbornCheaterBlamed: an opening that contradicts the
// commitment is proof, so the cheater lands in Blamed without a signer.
func TestDKGStubbornCheaterBlamed(t *testing.T) {
	for name, g := range dealers() {
		t.Run(name, func(t *testing.T) {
			res, err := g.DKG(DKGConfig{K: 1, N: 5, Faults: map[int]DKGFault{2: DKGCheatStubborn}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Blamed, []int{2}) {
				t.Fatalf("blamed = %v, want [2]", res.Blamed)
			}
			if res.Signers[1] != nil {
				t.Fatal("blamed participant received a signer")
			}
			if res.Complaints == 0 {
				t.Fatal("cheating produced no complaints")
			}
			signWith(t, res.Key, res.Signers, []int{1, 4}, []byte("post blame"))
		})
	}
}

// TestDKGCheatThenRevealSurvives exercises the recovery branch: the
// complaint forces a public opening that matches the commitment, the
// receiver adopts it, and the dealer stays qualified.
func TestDKGCheatThenRevealSurvives(t *testing.T) {
	for name, g := range dealers() {
		t.Run(name, func(t *testing.T) {
			res, err := g.DKG(DKGConfig{K: 1, N: 4, Faults: map[int]DKGFault{3: DKGCheatThenReveal}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Blamed) != 0 {
				t.Fatalf("recovering dealer was blamed: %v", res.Blamed)
			}
			if res.Complaints == 0 {
				t.Fatal("bad sub-share produced no complaint")
			}
			// The survivor's share must be usable.
			signWith(t, res.Key, res.Signers, []int{1, 3}, []byte("recovered"))
		})
	}
}

// TestDKGSilentExcluded: a participant that never deals is dropped
// without proof of malice.
func TestDKGSilentExcluded(t *testing.T) {
	for name, g := range dealers() {
		t.Run(name, func(t *testing.T) {
			res, err := g.DKG(DKGConfig{K: 1, N: 4, Faults: map[int]DKGFault{4: DKGSilent}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Silent, []int{4}) {
				t.Fatalf("silent = %v, want [4]", res.Silent)
			}
			if len(res.Blamed) != 0 {
				t.Fatalf("silence was blamed with proof: %v", res.Blamed)
			}
			if res.Signers[3] != nil {
				t.Fatal("silent participant received a signer")
			}
			signWith(t, res.Key, res.Signers, []int{1, 2}, []byte("without 4"))
		})
	}
}

// TestDKGTooFewQualified: when cheating leaves fewer than k+1 qualified
// participants, the generation aborts rather than dealing an unusable key.
func TestDKGTooFewQualified(t *testing.T) {
	for name, g := range dealers() {
		t.Run(name, func(t *testing.T) {
			_, err := g.DKG(DKGConfig{K: 2, N: 4, Faults: map[int]DKGFault{
				1: DKGCheatStubborn,
				2: DKGCheatStubborn,
			}})
			if err == nil {
				t.Fatal("DKG succeeded with only 2 qualified participants for threshold 2")
			}
		})
	}
}

func TestDKGInvalidParams(t *testing.T) {
	for name, g := range dealers() {
		t.Run(name, func(t *testing.T) {
			if _, err := g.DKG(DKGConfig{K: 3, N: 3}); err == nil {
				t.Fatal("accepted k+1 > n")
			}
			if _, err := g.DKG(DKGConfig{K: -1, N: 3}); err == nil {
				t.Fatal("accepted negative k")
			}
		})
	}
}

// TestDKGRejectsUnusableFaults: a fault entry the qualification round
// cannot act on — keyed outside 1..N, or naming no DKGFault — fails the
// generation instead of leaving its participant silently honest.
func TestDKGRejectsUnusableFaults(t *testing.T) {
	for name, g := range dealers() {
		t.Run(name, func(t *testing.T) {
			for _, faults := range []map[int]DKGFault{
				{6: DKGSilent}, // a 0-based node 5 of five, shifted to 1-based
				{0: DKGCheatStubborn},
				{-1: DKGSilent},
				{2: DKGSilent + 1},
				{2: DKGHonest - 1},
				{3: DKGSilent, 7: DKGCheatThenReveal},
			} {
				if _, err := g.DKG(DKGConfig{K: 1, N: 5, Faults: faults}); err == nil {
					t.Errorf("DKG accepted faults %v among 5 participants", faults)
				}
			}
			res, err := g.DKG(DKGConfig{K: 1, N: 5, Faults: map[int]DKGFault{1: DKGHonest, 5: DKGSilent}})
			if err != nil {
				t.Fatalf("in-range faults rejected: %v", err)
			}
			if len(res.Silent) != 1 || res.Silent[0] != 5 {
				t.Fatalf("silent = %v, want [5]", res.Silent)
			}
		})
	}
}

// TestDKGKeySupportsRefreshAndReshare: the DKG records the same dealer
// secret state as Deal, so the full key lifecycle works on a dealerless
// key.
func TestDKGKeySupportsRefreshAndReshare(t *testing.T) {
	d := seededRSA(512, 2)
	res, err := d.DKG(DKGConfig{K: 1, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("lifecycle")
	sig := signWith(t, res.Key, res.Signers, []int{1, 2}, msg)
	fresh, err := d.Refresh(res.Key, res.Signers)
	if err != nil {
		t.Fatalf("refresh of DKG key: %v", err)
	}
	signWith(t, res.Key, fresh, []int{2, 4}, msg)
	if _, err := d.Reshare(res.Key, 2, 5); err != nil {
		t.Fatalf("reshare of DKG key: %v", err)
	}
	if err := res.Key.Verify(msg, sig); err != nil {
		t.Fatalf("pre-reshare signature invalidated: %v", err)
	}
}

// TestDKGDeterministicSim: the sim scheme's DKG is a pure function of the
// dealer seed, which the scenario layer's determinism contract relies on.
func TestDKGDeterministicSim(t *testing.T) {
	mk := func() (*DKGResult, error) {
		return NewSimDealer([]byte("det"), 128).DKG(DKGConfig{K: 1, N: 4, Faults: map[int]DKGFault{2: DKGCheatStubborn}})
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("same partials")
	pa, _ := a.Signers[0].PartialSign(msg)
	pb, _ := b.Signers[0].PartialSign(msg)
	if !bytes.Equal(pa.Data, pb.Data) {
		t.Fatal("same-seed DKGs derived different shares")
	}
	if !reflect.DeepEqual(a.Blamed, b.Blamed) || a.Complaints != b.Complaints {
		t.Fatal("same-seed DKGs produced different transcripts")
	}
}

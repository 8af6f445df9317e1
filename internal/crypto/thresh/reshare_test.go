package thresh

import (
	"testing"
)

// TestResharePreservesPublicKey pins the acceptance criterion: a reshare
// to a new (k, n) keeps the public key — for threshold RSA, signatures
// combined before the reshare still verify afterwards — while the new
// signer set signs through the same key object. The sim scheme's share
// keys *are* its verification state, so its old signatures expire with
// the epoch (the documented analogue of its refresh semantics).
func TestResharePreservesPublicKey(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, old, err := d.Deal(2, 5)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("reshare test")
			oldSig := signWith(t, gk, old, []int{1, 2, 3}, msg)
			before := gk.Epoch()

			fresh, err := d.Reshare(gk, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			if gk.Threshold() != 1 || gk.Players() != 3 {
				t.Fatalf("key reports (%d, %d), want (1, 3)", gk.Threshold(), gk.Players())
			}
			if got := gk.Epoch(); got != before+1 {
				t.Fatalf("epoch %d after reshare, want %d", got, before+1)
			}
			if name == "rsa" {
				if err := gk.Verify(msg, oldSig); err != nil {
					t.Fatalf("pre-reshare signature invalidated: %v", err)
				}
			} else {
				if err := gk.Verify(msg, oldSig); err == nil {
					t.Fatal("sim signature survived a reshare epoch")
				}
			}
			signWith(t, gk, fresh, []int{1, 3}, msg)
		})
	}
}

// TestReshareGrowsQuorum: joins can raise both the player count and the
// threshold; share indices beyond the original n become valid.
func TestReshareGrowsQuorum(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, _, err := d.Deal(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := d.Reshare(gk, 2, 6)
			if err != nil {
				t.Fatal(err)
			}
			if len(fresh) != 6 {
				t.Fatalf("got %d signers, want 6", len(fresh))
			}
			signWith(t, gk, fresh, []int{4, 5, 6}, []byte("grown"))
		})
	}
}

// TestReshareStaleSharesRejected: shares from before the reshare must not
// combine with fresh ones — the share polynomial (and, when n changes,
// the Δ = n! the partial exponents bake in) has moved. A *complete* stale
// quorum is a different matter: under RSA it still interpolates to the
// unchanged private exponent (those nodes could already sign together
// before the reshare, so nothing is lost), while the sim scheme's rotated
// share keys reject stale partials outright.
func TestReshareStaleSharesRejected(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, old, err := d.Deal(1, 4)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("stale")
			stale0, err := old[0].PartialSign(msg)
			if err != nil {
				t.Fatal(err)
			}
			stale1, err := old[1].PartialSign(msg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := d.Reshare(gk, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			if name == "sim" {
				if _, err := gk.Combine(msg, []Partial{stale0, stale1}); err == nil {
					t.Fatal("stale sim shares combined after a reshare")
				}
			}
			p2, err := fresh[2].PartialSign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gk.Combine(msg, []Partial{stale0, p2}); err == nil {
				t.Fatal("stale share combined with a fresh one")
			}
			signWith(t, gk, fresh, []int{1, 2}, msg)
		})
	}
}

// TestRepeatedReshares drives the key through shrink/grow cycles,
// exercising the Lagrange-memo and Shoup-constant rebuild each time.
func TestRepeatedReshares(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, signers, err := d.Deal(2, 5)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("cycles")
			signWith(t, gk, signers, []int{1, 2, 3}, msg)
			shapes := []struct{ k, n int }{{1, 3}, {3, 7}, {2, 5}, {1, 2}}
			for step, sh := range shapes {
				signers, err = d.Reshare(gk, sh.k, sh.n)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				quorum := make([]int, sh.k+1)
				for i := range quorum {
					quorum[i] = i + 1
				}
				signWith(t, gk, signers, quorum, msg)
				if got := gk.Epoch(); got != uint64(step+1) {
					t.Fatalf("step %d: epoch %d", step, got)
				}
			}
		})
	}
}

func TestReshareInvalidParams(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, _, err := d.Deal(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Reshare(gk, 3, 3); err == nil {
				t.Fatal("accepted k+1 > n")
			}
			if _, err := d.Reshare(gk, 1, 0); err == nil {
				t.Fatal("accepted n=0")
			}
			if got := gk.Epoch(); got != 0 {
				t.Fatalf("failed reshare bumped the epoch to %d", got)
			}
		})
	}
}

func TestReshareForeignKeyRejected(t *testing.T) {
	rsa1 := seededRSA(512, 6)
	rsa2 := seededRSA(512, 7)
	gk, _, err := rsa1.Deal(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rsa2.Reshare(gk, 1, 3); err == nil {
		t.Fatal("dealer reshared a key it did not deal")
	}
	sim := NewSimDealer([]byte("x"), 64)
	if _, err := sim.Reshare(gk, 1, 3); err == nil {
		t.Fatal("sim dealer reshared an RSA key")
	}
}

// TestReshareThenRefresh: the two lifecycle operations compose — a
// proactive refresh keeps working at the post-reshare shape.
func TestReshareThenRefresh(t *testing.T) {
	d := seededRSA(512, 8)
	gk, _, err := d.Deal(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := d.Reshare(gk, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := d.Refresh(gk, fresh)
	if err != nil {
		t.Fatalf("refresh after reshare: %v", err)
	}
	signWith(t, gk, refreshed, []int{2, 3}, []byte("composed"))
	if got := gk.Epoch(); got != 2 {
		t.Fatalf("epoch %d after reshare+refresh, want 2", got)
	}
}

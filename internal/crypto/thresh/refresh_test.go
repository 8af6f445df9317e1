package thresh

import (
	"testing"
)

func TestRefreshPreservesGroupKey(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, old, err := d.Deal(2, 5)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("epoch test")
			// A signature combined before the refresh...
			var oldPartials []Partial
			for i := 0; i < 3; i++ {
				p, err := old[i].PartialSign(msg)
				if err != nil {
					t.Fatal(err)
				}
				oldPartials = append(oldPartials, p)
			}
			oldSig, err := gk.Combine(msg, oldPartials)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := d.Refresh(gk, old)
			if err != nil {
				t.Fatal(err)
			}
			// ...still verifies after the refresh (the public key did not
			// change)...
			if name == "rsa" {
				if err := gk.Verify(msg, oldSig); err != nil {
					t.Fatalf("pre-refresh signature invalidated: %v", err)
				}
			}
			// ...and fresh shares still produce valid signatures.
			var newPartials []Partial
			for i := 0; i < 3; i++ {
				p, err := fresh[i].PartialSign(msg)
				if err != nil {
					t.Fatal(err)
				}
				newPartials = append(newPartials, p)
			}
			sig, err := gk.Combine(msg, newPartials)
			if err != nil {
				t.Fatalf("post-refresh combine: %v", err)
			}
			if err := gk.Verify(msg, sig); err != nil {
				t.Fatalf("post-refresh verify: %v", err)
			}
		})
	}
}

func TestRefreshInvalidatesCrossEpochMixing(t *testing.T) {
	for name, d := range dealers() {
		t.Run(name, func(t *testing.T) {
			gk, old, err := d.Deal(2, 5)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("mix")
			stale0, err := old[0].PartialSign(msg)
			if err != nil {
				t.Fatal(err)
			}
			stale1, err := old[1].PartialSign(msg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := d.Refresh(gk, old)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := fresh[2].PartialSign(msg)
			if err != nil {
				t.Fatal(err)
			}
			// Two shares stolen before the refresh plus one fresh share
			// must NOT combine: the proactive property.
			if _, err := gk.Combine(msg, []Partial{stale0, stale1, p2}); err == nil {
				t.Fatal("stale shares combined across a refresh epoch")
			}
		})
	}
}

func TestRefreshForeignKeyRejected(t *testing.T) {
	rsa1 := seededRSA(512, 3)
	rsa2 := seededRSA(512, 4)
	gk, signers, err := rsa1.Deal(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rsa2.Refresh(gk, signers); err == nil {
		t.Fatal("dealer refreshed a key it did not deal")
	}
	sim := NewSimDealer([]byte("x"), 64)
	if _, err := sim.Refresh(gk, signers); err == nil {
		t.Fatal("sim dealer refreshed an RSA key")
	}
}

func TestRepeatedRefreshes(t *testing.T) {
	d := seededRSA(512, 5)
	gk, shares, err := d.Deal(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("many epochs")
	for epoch := 0; epoch < 4; epoch++ {
		shares, err = d.Refresh(gk, shares)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		p0, _ := shares[0].PartialSign(msg)
		p1, _ := shares[1].PartialSign(msg)
		sig, err := gk.Combine(msg, []Partial{p0, p1})
		if err != nil {
			t.Fatalf("epoch %d combine: %v", epoch, err)
		}
		if err := gk.Verify(msg, sig); err != nil {
			t.Fatalf("epoch %d verify: %v", epoch, err)
		}
	}
}

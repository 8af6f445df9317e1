package thresh

import (
	"bytes"
	"reflect"
	"testing"
)

// TestSeededRSADealerReproduces pins that an RSA dealer is a pure function
// of its stream: two dealers on equal seeds deal, generate, refresh and
// reshare the same keys, so their shares sign the same partials and
// combine to the same signatures.
func TestSeededRSADealerReproduces(t *testing.T) {
	msg := []byte("reproducible")
	run := func(d *RSADealer) (out [][]byte) {
		record := func(gk GroupKey, signers []Signer, idx []int) {
			rk := gk.(*rsaGroupKey)
			out = append(out, rk.modulus.Bytes(), rk.e.Bytes())
			for _, i := range idx {
				p, err := signers[i-1].PartialSign(msg)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, p.Data)
			}
			out = append(out, signWith(t, gk, signers, idx, msg).Data)
		}
		gk, signers, err := d.Deal(2, 5)
		if err != nil {
			t.Fatal(err)
		}
		record(gk, signers, []int{1, 2, 3})
		if signers, err = d.Refresh(gk, signers); err != nil {
			t.Fatal(err)
		}
		record(gk, signers, []int{3, 4, 5})
		if signers, err = d.Reshare(gk, 1, 3); err != nil {
			t.Fatal(err)
		}
		record(gk, signers, []int{1, 3})
		res, err := d.DKG(DKGConfig{K: 1, N: 4})
		if err != nil {
			t.Fatal(err)
		}
		record(res.Key, res.Signers, []int{2, 4})
		return out
	}
	a, b := run(seededRSA(512, 42)), run(seededRSA(512, 42))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two dealers on one seed produced different keys or signatures")
	}
	if c := run(seededRSA(512, 43)); bytes.Equal(a[0], c[0]) {
		t.Fatal("dealers on different seeds dealt the same modulus")
	}
}

// TestRSADealerNeedsRand: a dealer without a stream fails every step that
// draws, instead of falling back to a default source.
func TestRSADealerNeedsRand(t *testing.T) {
	d := &RSADealer{Bits: 512}
	if _, _, err := d.Deal(2, 5); err == nil {
		t.Error("Deal with a nil Rand succeeded")
	}
	if _, err := d.DKG(DKGConfig{K: 2, N: 5}); err == nil {
		t.Error("DKG with a nil Rand succeeded")
	}
	d = seededRSA(512, 1)
	gk, signers, err := d.Deal(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	d.Rand = nil
	if _, err := d.Refresh(gk, signers); err == nil {
		t.Error("Refresh with a nil Rand succeeded")
	}
	if _, err := d.Reshare(gk, 2, 5); err == nil {
		t.Error("Reshare with a nil Rand succeeded")
	}
	if got := gk.Epoch(); got != 0 {
		t.Errorf("failed refresh and reshare moved the epoch to %d", got)
	}
}

package thresh

import (
	"bytes"
	"testing"
)

// TestRSAVerifyPartial checks Shoup's partial proofs across the key
// lifecycle: every honest partial verifies after Deal, DKG, Refresh and
// Reshare, signing twice gives the same bytes, and VerifyPartial turns
// away every partial that is not an honest one of the current epoch — an
// unqualified DKG index (also after a Refresh), an old signer's partial
// after a Refresh or a Reshare, a wrong message, a wrong index, a zero or out-of-range Data, a
// non-canonical encoding, and every single-bit flip of Data or Proof.
func TestRSAVerifyPartial(t *testing.T) {
	msg := []byte("verify-partial")
	d := seededRSA(512, 12)
	honest := func(t *testing.T, gk GroupKey, signers []Signer) []Partial {
		t.Helper()
		var parts []Partial
		for _, s := range signers {
			if s == nil {
				continue
			}
			p, err := s.PartialSign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if !gk.VerifyPartial(msg, p) {
				t.Fatalf("honest partial %d rejected", p.Index)
			}
			again, err := s.PartialSign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Data, p.Data) || !bytes.Equal(again.Proof, p.Proof) {
				t.Fatalf("partial %d: signing twice gave different bytes", p.Index)
			}
			parts = append(parts, p)
		}
		return parts
	}

	gk, signers, err := d.Deal(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	dealt := honest(t, gk, signers)
	p := dealt[0]
	if want := gk.(*rsaGroupKey).proofBytes(); len(p.Proof) != want {
		t.Fatalf("proof is %d bytes, want %d", len(p.Proof), want)
	}
	reject := func(what string, q Partial) {
		t.Helper()
		if gk.VerifyPartial(msg, q) {
			t.Errorf("%s verified", what)
		}
	}
	other, err := signers[0].PartialSign([]byte("another message"))
	if err != nil {
		t.Fatal(err)
	}
	reject("a partial over another message", Partial{Index: p.Index, Data: other.Data, Proof: other.Proof})
	if gk.VerifyPartial([]byte("another message"), p) {
		t.Error("a partial verified against another message")
	}
	reject("a partial under the wrong index", Partial{Index: 2, Data: p.Data, Proof: p.Proof})
	reject("an index out of range", Partial{Index: 6, Data: p.Data, Proof: p.Proof})
	reject("index 0", Partial{Index: 0, Data: p.Data, Proof: p.Proof})
	// Partial 3 zeroed is not invertible mod N: it is named by index,
	// before any combine.
	reject("a zero partial 3", Partial{Index: 3, Data: []byte{0}, Proof: dealt[2].Proof})
	reject("an empty Data", Partial{Index: 3, Data: nil, Proof: dealt[2].Proof})
	reject("Data equal to N", Partial{Index: 1, Data: gk.(*rsaGroupKey).modulus.Bytes(), Proof: p.Proof})
	reject("Data with a leading zero byte", Partial{Index: 1, Data: append([]byte{0}, p.Data...), Proof: p.Proof})
	reject("a missing proof", Partial{Index: 1, Data: p.Data})
	reject("a truncated proof", Partial{Index: 1, Data: p.Data, Proof: p.Proof[:len(p.Proof)-1]})
	reject("a proof with a trailing byte", Partial{Index: 1, Data: p.Data, Proof: append(append([]byte(nil), p.Proof...), 0)})
	for _, field := range []string{"Data", "Proof"} {
		src := p.Data
		if field == "Proof" {
			src = p.Proof
		}
		for bit := 0; bit < 8*len(src); bit++ {
			flipped := append([]byte(nil), src...)
			flipped[bit/8] ^= 1 << (bit % 8)
			q := Partial{Index: p.Index, Data: p.Data, Proof: p.Proof}
			if field == "Data" {
				q.Data = flipped
			} else {
				q.Proof = flipped
			}
			if gk.VerifyPartial(msg, q) {
				t.Fatalf("%s with bit %d flipped verified", field, bit)
			}
		}
	}

	// Refresh: fresh partials verify, the old signer's no longer do.
	fresh, err := d.Refresh(gk, signers)
	if err != nil {
		t.Fatal(err)
	}
	refreshed := honest(t, gk, fresh)
	for _, old := range dealt {
		if gk.VerifyPartial(msg, old) {
			t.Errorf("old signer %d's partial verified after Refresh", old.Index)
		}
	}

	// Reshare to 3-of-7: the new layout verifies, the refreshed one not.
	reshared, err := d.Reshare(gk, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	honest(t, gk, reshared)
	for _, old := range refreshed {
		if gk.VerifyPartial(msg, old) {
			t.Errorf("pre-reshare signer %d's partial verified after Reshare", old.Index)
		}
	}

	// DKG: qualified participants' partials verify; the blamed and silent
	// participants hold no verification key, so nothing under their
	// indices verifies.
	res, err := d.DKG(DKGConfig{K: 1, N: 5, Faults: map[int]DKGFault{3: DKGCheatStubborn, 5: DKGSilent}})
	if err != nil {
		t.Fatal(err)
	}
	qualified := honest(t, res.Key, res.Signers)
	if len(qualified) != 3 {
		t.Fatalf("%d qualified signers, want 3", len(qualified))
	}
	unqualified := func(parts []Partial) {
		t.Helper()
		for _, idx := range []int{3, 5} {
			for _, q := range parts {
				if res.Key.VerifyPartial(msg, Partial{Index: idx, Data: q.Data, Proof: q.Proof}) {
					t.Errorf("unqualified index %d verified with participant %d's partial", idx, q.Index)
				}
			}
		}
	}
	unqualified(qualified)
	// Refreshing the qualified holders publishes keys for them alone.
	var holders []Signer
	for _, s := range res.Signers {
		if s != nil {
			holders = append(holders, s)
		}
	}
	rotated, err := d.Refresh(res.Key, holders)
	if err != nil {
		t.Fatal(err)
	}
	unqualified(honest(t, res.Key, rotated))
	for _, old := range qualified {
		if res.Key.VerifyPartial(msg, old) {
			t.Errorf("generated signer %d's partial verified after Refresh", old.Index)
		}
	}
}

// FuzzVerifyPartial runs VerifyPartial on arbitrary Index, Data and Proof
// against one seeded key: it must never panic and must accept exactly the
// honest partials.
func FuzzVerifyPartial(f *testing.F) {
	msg := []byte("fuzz-verify-partial")
	gk, signers, err := seededRSA(512, 13).Deal(1, 3)
	if err != nil {
		f.Fatal(err)
	}
	honest := make(map[int]Partial)
	for _, s := range signers {
		p, err := s.PartialSign(msg)
		if err != nil {
			f.Fatal(err)
		}
		honest[p.Index] = p
		f.Add(p.Index, p.Data, p.Proof)
		f.Add(p.Index%3+1, p.Data, p.Proof)
		f.Add(p.Index, p.Data[1:], p.Proof)
		f.Add(p.Index, p.Data, p.Proof[:len(p.Proof)-1])
	}
	f.Add(0, []byte{}, []byte{})
	f.Add(-1, []byte{0}, []byte{0})
	f.Fuzz(func(t *testing.T, index int, data, proof []byte) {
		h, ok := honest[index]
		want := ok && bytes.Equal(data, h.Data) && bytes.Equal(proof, h.Proof)
		if got := gk.VerifyPartial(msg, Partial{Index: index, Data: data, Proof: proof}); got != want {
			t.Fatalf("VerifyPartial(index %d, %d-byte data, %d-byte proof) = %v, want %v", index, len(data), len(proof), got, want)
		}
	})
}

// BenchmarkRSA1024PartialSign times one partial signature with its proof
// on the 1024-bit, 2-of-5 key shape of scripts/bench's
// thresh.rsa1024_partial_us probe; BenchmarkRSA1024VerifyPartial times
// the center's check of one. No probe times VerifyPartial.
func BenchmarkRSA1024PartialSign(b *testing.B) {
	_, signers, err := seededRSA(1024, 14).Deal(2, 5)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("bench-partial")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signers[0].PartialSign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSA1024VerifyPartial(b *testing.B) {
	gk, signers, err := seededRSA(1024, 14).Deal(2, 5)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("bench-partial")
	p, err := signers[0].PartialSign(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !gk.VerifyPartial(msg, p) {
			b.Fatal("honest partial rejected")
		}
	}
}

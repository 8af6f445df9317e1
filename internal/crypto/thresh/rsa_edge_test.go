package thresh

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

func dealRSA(t testing.TB, k, n int) (GroupKey, []Signer, *rsaGroupKey) {
	t.Helper()
	d := seededRSA(512, 9)
	gk, signers, err := d.Deal(k, n)
	if err != nil {
		t.Fatal(err)
	}
	return gk, signers, gk.(*rsaGroupKey)
}

func signAll(t testing.TB, signers []Signer, msg []byte) []Partial {
	t.Helper()
	parts := make([]Partial, len(signers))
	for i, s := range signers {
		p, err := s.PartialSign(msg)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	return parts
}

// TestCombineSkipsDuplicateIndices feeds Combine repeated copies of the
// same partial alongside distinct ones: duplicates must not count toward
// the k+1 quorum, and the result must match the clean combination.
func TestCombineSkipsDuplicateIndices(t *testing.T) {
	gk, signers, _ := dealRSA(t, 2, 5)
	msg := []byte("dup-indices")
	parts := signAll(t, signers, msg)
	clean, err := gk.Combine(msg, parts[:3])
	if err != nil {
		t.Fatal(err)
	}
	// Two copies of partial 1 in front: selection must skip the duplicate
	// and still assemble {1, 2, 3}.
	padded := []Partial{parts[0], parts[0], parts[0], parts[1], parts[2]}
	got, err := gk.Combine(msg, padded)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != string(clean.Data) {
		t.Fatal("duplicate-laden combine differs from clean combine")
	}
	// Duplicates alone cannot reach the quorum.
	dupOnly := []Partial{parts[0], parts[0], parts[1], parts[1]}
	if _, err := gk.Combine(msg, dupOnly); !errors.Is(err, ErrTooFewPartials) {
		t.Fatalf("want ErrTooFewPartials for duplicate-only set, got %v", err)
	}
}

// TestCombineExactlyKPartials checks the boundary: k partials (one short
// of the k+1 quorum) must fail with ErrTooFewPartials, k+1 must succeed.
func TestCombineExactlyKPartials(t *testing.T) {
	gk, signers, _ := dealRSA(t, 2, 5)
	msg := []byte("quorum-boundary")
	parts := signAll(t, signers, msg)
	if _, err := gk.Combine(msg, parts[:2]); !errors.Is(err, ErrTooFewPartials) {
		t.Fatalf("k partials: want ErrTooFewPartials, got %v", err)
	}
	if _, err := gk.Combine(msg, parts[:3]); err != nil {
		t.Fatalf("k+1 partials: %v", err)
	}
}

// TestCombineCorruptPartialNamesSet corrupts one partial among k+1:
// Combine must fail with ErrBadPartial and its message must name the
// co-signer set. (VerifyPartial names the culprit itself; see
// TestRSAVerifyPartial.)
func TestCombineCorruptPartialNamesSet(t *testing.T) {
	gk, signers, _ := dealRSA(t, 2, 5)
	msg := []byte("corrupt-partial")
	parts := signAll(t, signers, msg)
	bad := append([]Partial(nil), parts[:3]...)
	bad[1].Data = append([]byte(nil), bad[1].Data...)
	bad[1].Data[0] ^= 0x40
	_, err := gk.Combine(msg, bad)
	if !errors.Is(err, ErrBadPartial) {
		t.Fatalf("want ErrBadPartial, got %v", err)
	}
	if !strings.Contains(err.Error(), "[1 2 3]") {
		t.Fatalf("error %q does not name the co-signer set [1 2 3]", err)
	}
}

// TestVerifyPartialWrongMessage checks the individually checkable (keyed
// MAC) scheme: a partial over one message must not verify against another.
func TestVerifyPartialWrongMessage(t *testing.T) {
	gk, signers, err := NewSimDealer([]byte("edge"), 128).Deal(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := signers[0].PartialSign([]byte("right message"))
	if err != nil {
		t.Fatal(err)
	}
	if !gk.VerifyPartial([]byte("right message"), p) {
		t.Fatal("genuine partial rejected")
	}
	if gk.VerifyPartial([]byte("wrong message"), p) {
		t.Fatal("partial verified against a different message")
	}
	if gk.VerifyPartial([]byte("right message"), Partial{Index: 99, Data: p.Data}) {
		t.Fatal("out-of-range index verified")
	}
}

// powSigned is Combine's (and referenceCombine's) signed-exponent step:
// b^e mod m for signed e.
func TestPowSigned(t *testing.T) {
	m := big.NewInt(101) // prime modulus: everything nonzero is invertible
	base := big.NewInt(7)

	pos, err := powSigned(base, big.NewInt(4), m)
	if err != nil || pos.Int64() != 7*7*7*7%101 {
		t.Fatalf("positive exponent: got %v, %v", pos, err)
	}

	exp := big.NewInt(-3)
	neg, err := powSigned(base, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	// b^-3 * b^3 == 1 (mod m).
	check := new(big.Int).Exp(base, big.NewInt(3), m)
	check.Mul(check, neg).Mod(check, m)
	if check.Int64() != 1 {
		t.Fatalf("b^-3 * b^3 = %v, want 1", check)
	}
	// The exponent is shared (a key's a and b) and must not be written.
	if exp.Int64() != -3 {
		t.Fatalf("caller's exponent mutated: %v", exp)
	}

	// Non-invertible base with a negative exponent is an error, not a
	// silent nil or zero result.
	mm := big.NewInt(100)
	if _, err := powSigned(big.NewInt(10), big.NewInt(-1), mm); err == nil {
		t.Fatal("non-invertible base accepted")
	}
	if exp.Int64() != -3 {
		t.Fatalf("exponent mutated on error path: %v", exp)
	}
}

// TestConcurrentCombine has several goroutines combine under one key, as
// the shards of a sharded replica do: each works through every co-signer
// set of a 2-of-5 key, a different message per set, starting at its own
// set. Every result must verify and equal the serial run byte for byte;
// under -race it also shows that Combine writes nothing the key shares.
func TestConcurrentCombine(t *testing.T) {
	gk, signers, _ := dealRSA(t, 2, 5)
	msgOf := func(i int) []byte { return []byte(fmt.Sprintf("concurrent-%d", i)) }
	var sets [][]Partial
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			for k := j + 1; k < 5; k++ {
				var set []Partial
				for _, s := range []int{i, j, k} {
					p, err := signers[s].PartialSign(msgOf(len(sets)))
					if err != nil {
						t.Fatal(err)
					}
					set = append(set, p)
				}
				sets = append(sets, set)
			}
		}
	}
	serial := make([][]byte, len(sets))
	for i, set := range sets {
		sig, err := gk.Combine(msgOf(i), set)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = sig.Data
	}
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for n := range sets {
				i := (w*3 + n) % len(sets)
				sig, err := gk.Combine(msgOf(i), sets[i])
				switch {
				case err != nil:
				case !bytes.Equal(sig.Data, serial[i]):
					err = fmt.Errorf("set %d: concurrent signature differs from the serial one", i)
				default:
					err = gk.Verify(msgOf(i), sig)
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// FuzzCombine replaces the Data of partial 2 in the co-signer set {1, 2, 3}
// of a 2-of-5 key: Combine must never panic, and either return the honest
// signature, which Verify accepts, or fail with ErrBadPartial naming the
// set. Data that is x_2 modulo N (x_2 + N among the seeds) must combine.
func FuzzCombine(f *testing.F) {
	gk, signers, g := dealRSA(f, 2, 5)
	msg := []byte("fuzz-combine")
	parts := signAll(f, signers, msg)[:3]
	honest, err := gk.Combine(msg, parts)
	if err != nil {
		f.Fatal(err)
	}
	x2 := new(big.Int).SetBytes(parts[1].Data)
	f.Add(parts[1].Data)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(new(big.Int).Add(x2, g.modulus).Bytes())
	f.Add(new(big.Int).Sub(g.modulus, x2).Bytes())
	f.Add(g.modulus.Bytes())
	random := make([]byte, gk.SigBytes())
	rand.New(rand.NewSource(1)).Read(random)
	f.Add(random)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := append([]Partial(nil), parts...)
		in[1].Data = data
		sig, err := gk.Combine(msg, in)
		mustCombine := new(big.Int).Mod(new(big.Int).SetBytes(data), g.modulus).Cmp(x2) == 0
		switch {
		case err == nil && !bytes.Equal(sig.Data, honest.Data):
			t.Fatalf("Data %x combined to a signature other than the honest one", data)
		case err == nil && gk.Verify(msg, sig) != nil:
			t.Fatalf("Data %x: the combined signature does not verify", data)
		case err == nil:
		case mustCombine:
			t.Fatalf("Data %x is x_2 modulo N but did not combine: %v", data, err)
		case !errors.Is(err, ErrBadPartial) || !strings.Contains(err.Error(), "[1 2 3]"):
			t.Fatalf("Data %x: err = %v, want ErrBadPartial naming [1 2 3]", data, err)
		}
	})
}

// TestCombineRuleSharedBySchemes: both schemes combine the same co-signer
// set — the first k+1 partials with distinct indexes in 1..n — and answer
// each input with the same error kind. A bad partial inside the set fails
// the combine, naming the set, even when a good partial with its index
// comes later; partials outside the set are never looked at.
func TestCombineRuleSharedBySchemes(t *testing.T) {
	msg := []byte("one combine rule")
	for _, sc := range []struct {
		name string
		d    Dealer
	}{{"sim", NewSimDealer([]byte("rule"), 128)}, {"rsa", seededRSA(512, 9)}} {
		t.Run(sc.name, func(t *testing.T) {
			gk, signers, err := sc.d.Deal(2, 5)
			if err != nil {
				t.Fatal(err)
			}
			old := signAll(t, signers, msg)
			fresh, err := sc.d.Refresh(gk, signers)
			if err != nil {
				t.Fatal(err)
			}
			p := signAll(t, fresh, msg)
			zero, past := p[0], p[1]
			zero.Index, past.Index = 0, 6
			for _, tc := range []struct {
				name string
				in   []Partial
				want error // nil: combines into a signature that verifies
			}{
				{"all verified", p[:3], nil},
				{"one stale share", []Partial{p[0], old[1], p[2]}, ErrBadPartial},
				{"stale share before its fresh one", []Partial{old[0], p[0], p[1], p[2]}, ErrBadPartial},
				{"empty partial", []Partial{{Index: 1}, p[1], p[2], p[3]}, ErrBadPartial},
				{"stale share past the set", []Partial{p[0], p[1], p[2], old[3]}, nil},
				{"duplicate index", []Partial{p[0], p[0], p[1], p[2]}, nil},
				{"duplicate index short", []Partial{p[0], p[0], p[1]}, ErrTooFewPartials},
				{"index 0 and n+1", []Partial{zero, past, p[2], p[3], p[4]}, nil},
				{"index 0 and n+1 short", []Partial{zero, past, p[2], p[3]}, ErrTooFewPartials},
				{"only k partials", p[:2], ErrTooFewPartials},
			} {
				sig, err := gk.Combine(msg, tc.in)
				switch {
				case tc.want == nil && err != nil:
					t.Errorf("%s: %v", tc.name, err)
				case tc.want == nil:
					if err := gk.Verify(msg, sig); err != nil {
						t.Errorf("%s: combined signature does not verify: %v", tc.name, err)
					}
				case !errors.Is(err, tc.want):
					t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
				case tc.want == ErrBadPartial && !strings.Contains(err.Error(), "[1 2 3]"):
					t.Errorf("%s: %q does not name the co-signer set [1 2 3]", tc.name, err)
				}
			}
		})
	}
}

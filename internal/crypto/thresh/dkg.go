// Dealerless key generation: the n prospective share holders establish a
// group key among themselves with a verifiable-secret-sharing round —
// commitments, sub-share consistency checks, complaints, and blame — so
// the trusted dealer of §2 of the paper is no longer a single point of
// compromise, and cheaters are identified with proof (the "identifying
// abort" idiom of modern DKGs).
//
// Honesty about what is modeled: the genuinely hard parts of dealerless
// threshold RSA — generating a modulus no party can factor (Boneh &
// Franklin, "Efficient generation of shared RSA keys") and sharing the
// private exponent without anyone holding λ(N) (Damgård & Koprowski) —
// are played here by the dealer object acting as the ideal functionality,
// exactly as SimScheme models the signatures themselves. What runs for
// real is the protocol layer the rest of the system consumes: the
// qualification round's SHA-256 sub-share commitments, the consistency
// checks, the complaint/opening/blame rounds (over a public 256-bit
// prime, with real Shamir arithmetic), and the qualified-set rule. Blamed
// participants are excluded from the final signer set and surfaced to the
// caller, which feeds them to the vote-layer suspicion machinery — the
// same path that marks nodes permanently suspect for corrupt partials.
package thresh

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"sort"

	"innercircle/internal/crypto/keyedmac"
	"innercircle/internal/crypto/shamir"
)

// DKGFault scripts one participant's behaviour in the qualification
// round, so tests and fault campaigns can exercise every branch of the
// complaint protocol deterministically.
type DKGFault int

const (
	// DKGHonest follows the protocol.
	DKGHonest DKGFault = iota
	// DKGCheatThenReveal deals one receiver a sub-share inconsistent with
	// its commitment, then answers the complaint with the honest opening:
	// the receiver adopts the opened value and the dealer survives. This
	// is the recovery branch of the complaint round.
	DKGCheatThenReveal
	// DKGCheatStubborn deals a bad sub-share and re-asserts it when
	// challenged: the opening contradicts the commitment, which is a
	// transferable proof of misbehaviour — the participant is blamed and
	// excluded.
	DKGCheatStubborn
	// DKGSilent never deals: excluded from the qualified set, but with no
	// proof of malice (a crashed node looks the same), so it lands in
	// Silent rather than Blamed.
	DKGSilent
)

// DKGConfig parameterizes one dealerless key generation.
type DKGConfig struct {
	// K is the threshold: K+1 cooperating shares sign.
	K int
	// N is the number of participants (share indices 1..N).
	N int
	// Faults scripts misbehaviour by participant index (1-based); absent
	// participants are honest. A key outside 1..N or a value that is no
	// DKGFault fails the generation.
	Faults map[int]DKGFault
}

// DKGResult is the outcome of a dealerless key generation.
type DKGResult struct {
	// Key is the established group key; signatures under it verify through
	// exactly the same Combine/Verify path as a dealer-dealt key.
	Key GroupKey
	// Signers holds participant i's signer at index i-1, nil for
	// participants excluded during qualification.
	Signers []Signer
	// Blamed lists participants (ascending) disqualified with proof — an
	// opening contradicting a commitment. Callers map these to permanent
	// suspicion.
	Blamed []int
	// Silent lists participants (ascending) that never dealt —
	// indistinguishable from a crash, so worth temporary suspicion only.
	Silent []int
	// Complaints counts complaint messages exchanged (diagnostics).
	Complaints int
}

// dkgPrime is the fixed public 256-bit prime (2²⁵⁶ − 189) the
// qualification round's throwaway pad VSS runs over. Its value carries no
// secret; it only needs to be prime and public so the Shamir arithmetic
// and the commitment checks are honest.
var dkgPrime = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(189))

// dkgCommit is the sub-share commitment: H(tag ‖ dealer ‖ receiver ‖ value).
func dkgCommit(dealer, receiver int, v *big.Int) [sha256.Size]byte {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(dealer))
	binary.BigEndian.PutUint64(hdr[8:], uint64(receiver))
	h := sha256.New()
	_, _ = h.Write([]byte("ic-dkg-subshare"))
	_, _ = h.Write(hdr[:])
	_, _ = h.Write(v.Bytes())
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// dkgTranscript is what the qualification round establishes: who is in,
// who is out and why, and each qualified participant's pad (the joint
// entropy contribution the later rounds consume).
type dkgTranscript struct {
	qual       []int // ascending qualified participants
	blamed     []int
	silent     []int
	pads       []*big.Int // 1..n; set for qualified participants only
	complaints int
}

// dkgQualify runs the qualification round for real: every live
// participant deals a Shamir sharing of a throwaway pad over dkgPrime,
// commits to each sub-share, receivers check received values against the
// commitments, mismatches trigger complaints, and the dealer's opening
// either repairs the share (it matches the commitment) or convicts the
// dealer (it does not). Scripted faults make every branch reachable.
//
// It is both schemes' DKG entry, so it also checks cfg: an invalid
// threshold, a fault entry it could not act on (keyed outside 1..N, or no
// DKGFault), and fewer than K+1 qualified participants are errors.
func dkgQualify(cfg DKGConfig, rnd io.Reader) (*dkgTranscript, error) {
	k, n, faults := cfg.K, cfg.N, cfg.Faults
	if k < 0 || n < 1 || k+1 > n {
		return nil, fmt.Errorf("thresh: invalid threshold k=%d n=%d", k, n)
	}
	var bad []int
	for i, f := range faults {
		if i < 1 || i > n || f < DKGHonest || f > DKGSilent {
			bad = append(bad, i)
		}
	}
	if len(bad) > 0 {
		sort.Ints(bad)
		return nil, fmt.Errorf("thresh: dkg faults for participants %v: want an index in 1..%d and a known DKGFault", bad, n)
	}
	tr := &dkgTranscript{pads: make([]*big.Int, n+1)}
	type dealing struct {
		pad   *big.Int
		truth []*big.Int // f_i(j) as committed, 1-based receiver index
		sent  []*big.Int // f_i(j) as transmitted (cheaters corrupt one)
		com   [][sha256.Size]byte
	}
	deals := make([]*dealing, n+1)
	for i := 1; i <= n; i++ {
		if faults[i] == DKGSilent {
			tr.silent = append(tr.silent, i)
			continue
		}
		pad, err := shamir.RandInt(rnd, dkgPrime)
		if err != nil {
			return nil, fmt.Errorf("thresh: dkg pad: %w", err)
		}
		shares, err := shamir.Split(pad, k, n, dkgPrime, rnd)
		if err != nil {
			return nil, fmt.Errorf("thresh: dkg pad sharing: %w", err)
		}
		dl := &dealing{
			pad:   pad,
			truth: make([]*big.Int, n+1),
			sent:  make([]*big.Int, n+1),
			com:   make([][sha256.Size]byte, n+1),
		}
		for _, s := range shares {
			dl.truth[s.X] = s.Y
			dl.sent[s.X] = s.Y
			dl.com[s.X] = dkgCommit(i, s.X, s.Y)
		}
		switch faults[i] {
		case DKGCheatThenReveal, DKGCheatStubborn:
			victim := 1
			if victim == i {
				victim = 2
			}
			bad := new(big.Int).Add(dl.truth[victim], big.NewInt(1))
			bad.Mod(bad, dkgPrime)
			dl.sent[victim] = bad
		}
		deals[i] = dl
	}
	// Complaint and blame rounds. Receivers check every dealing against
	// its commitments; each mismatch forces the dealer to open the
	// committed value in public.
	for i := 1; i <= n; i++ {
		dl := deals[i]
		if dl == nil {
			continue
		}
		blamed := false
		for j := 1; j <= n; j++ {
			if faults[j] == DKGSilent { // departed receivers cannot complain
				continue
			}
			if dkgCommit(i, j, dl.sent[j]) == dl.com[j] {
				continue
			}
			tr.complaints++
			reveal := dl.sent[j] // a stubborn cheater re-asserts the bad value
			if faults[i] == DKGCheatThenReveal {
				reveal = dl.truth[j]
			}
			if dkgCommit(i, j, reveal) == dl.com[j] {
				dl.sent[j] = reveal // receiver adopts the public opening
			} else {
				blamed = true // opening contradicts commitment: proof of cheating
			}
		}
		if blamed {
			tr.blamed = append(tr.blamed, i)
		} else {
			tr.qual = append(tr.qual, i)
			tr.pads[i] = dl.pad
		}
	}
	if len(tr.qual) < k+1 {
		return nil, fmt.Errorf("thresh: dkg left %d qualified participants, need at least %d", len(tr.qual), k+1)
	}
	return tr, nil
}

// DKG implements Dealer for threshold RSA. After the (real)
// qualification round fixes QUAL, the modulus and exponents come from the
// ideal functionality (see the package comment); each qualified
// participant then contributes an additive piece of the private exponent,
// Shamir-shares it mod λ, and participant j's final share is the sum of
// the sub-shares addressed to j — the Pedersen sum-of-dealings structure,
// with disqualified participants receiving nothing.
func (d *RSADealer) DKG(cfg DKGConfig) (*DKGResult, error) {
	tr, err := dkgQualify(cfg, d.Rand)
	if err != nil {
		return nil, err
	}
	k, n := cfg.K, cfg.N
	N, e, lambda, err := d.keyMaterial(n)
	if err != nil {
		return nil, err
	}
	dExp := new(big.Int).ModInverse(e, lambda)
	if dExp == nil {
		return nil, fmt.Errorf("thresh: e not invertible mod lambda")
	}
	// Additive contributions over QUAL summing to d, each Shamir-shared;
	// final shares are the per-receiver sums of sub-shares.
	sum := new(big.Int)
	shareSum := make([]*big.Int, n+1)
	for j := 1; j <= n; j++ {
		shareSum[j] = new(big.Int)
	}
	for pos, i := range tr.qual {
		var contrib *big.Int
		if pos == len(tr.qual)-1 {
			contrib = new(big.Int).Sub(dExp, sum)
			contrib.Mod(contrib, lambda)
		} else {
			contrib, err = shamir.RandInt(d.Rand, lambda)
			if err != nil {
				return nil, fmt.Errorf("thresh: dkg contribution: %w", err)
			}
		}
		sum.Add(sum, contrib)
		sum.Mod(sum, lambda)
		shares, err := shamir.Split(contrib, k, n, lambda, d.Rand)
		if err != nil {
			return nil, fmt.Errorf("thresh: dkg sub-sharing by %d: %w", i, err)
		}
		for _, s := range shares {
			shareSum[s.X].Add(shareSum[s.X], s.Y)
			shareSum[s.X].Mod(shareSum[s.X], lambda)
		}
	}
	gk, err := newRSAGroupKey(k, n, N, e)
	if err != nil {
		return nil, err
	}
	if d.secrets == nil {
		d.secrets = make(map[*rsaGroupKey]*big.Int)
	}
	d.secrets[gk] = lambda // refresh and reshare work on DKG-dealt keys too
	res := &DKGResult{
		Key:        gk,
		Signers:    make([]Signer, n),
		Blamed:     tr.blamed,
		Silent:     tr.silent,
		Complaints: tr.complaints,
	}
	for _, i := range tr.qual {
		res.Signers[i-1] = newRSASigner(gk, i, shareSum[i])
	}
	return res, nil
}

// drbgReader is a deterministic HMAC-SHA256 expansion stream, letting the
// SimDealer run the qualification round's real arithmetic reproducibly
// from its master seed.
type drbgReader struct {
	key   [keyedmac.Size]byte
	ctr   uint64
	block [keyedmac.Size]byte
	buf   []byte // the unread tail of block
}

func (r *drbgReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			r.ctr++
			r.block = simDerive(r.key[:], r.ctr, 0)
			r.buf = r.block[:]
		}
		c := copy(p[n:], r.buf)
		n += c
		r.buf = r.buf[c:]
	}
	return n, nil
}

// DKG implements Dealer for the simulation scheme: the same real
// qualification round, then a joint per-key root hashed from the
// qualified participants' pads, from which the share keys derive —
// keeping the protocol semantics (who is in, who is blamed, what a share
// index means) identical to the RSA path at sweep-friendly cost. A failed
// generation consumes no key ID.
func (d *SimDealer) DKG(cfg DKGConfig) (*DKGResult, error) {
	tr, err := dkgQualify(cfg, &drbgReader{key: simDerive(d.master, d.counter+1, 0)})
	if err != nil {
		return nil, err
	}
	d.counter++
	k, n := cfg.K, cfg.N
	h := sha256.New()
	_, _ = h.Write([]byte("ic-dkg-root"))
	for _, i := range tr.qual {
		var idx [8]byte
		binary.BigEndian.PutUint64(idx[:], uint64(i))
		_, _ = h.Write(idx[:])
		_, _ = h.Write(tr.pads[i].Bytes())
	}
	gk := &simGroupKey{k: k, n: n, sigSize: d.sigSize}
	h.Sum(gk.root[:0])
	gk.shareKeys = make([][keyedmac.Size]byte, n+1)
	for i := 1; i <= n; i++ {
		gk.shareKeys[i] = simDerive(gk.root[:], 0, i)
	}
	res := &DKGResult{
		Key:        gk,
		Signers:    make([]Signer, n),
		Blamed:     tr.blamed,
		Silent:     tr.silent,
		Complaints: tr.complaints,
	}
	for _, i := range tr.qual {
		res.Signers[i-1] = &simSigner{index: i, key: gk.shareKeys[i]}
	}
	return res, nil
}

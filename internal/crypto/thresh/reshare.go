package thresh

import (
	"fmt"
	"math/big"

	"innercircle/internal/crypto/keyedmac"
	"innercircle/internal/crypto/shamir"
)

// Reshare implements Dealer for the threshold RSA scheme. The dealer
// retains λ(N) (never d itself); d = e⁻¹ mod λ is recomputed and Shamir-
// shared afresh with the new parameters. The key's Shoup constants —
// Δ = n!, 4Δ and the extended-Euclid pair a·4Δ² + b·e = 1 — are rebuilt
// for the new (k, n) (setShape), and each new share publishes its
// verification key, so only the new layout's partials verify; the modulus
// and the proof base v survive untouched, which is exactly the "public key
// preserved" half of the contract.
func (d *RSADealer) Reshare(gk GroupKey, newK, newN int) ([]Signer, error) {
	rk, ok := gk.(*rsaGroupKey)
	if !ok {
		return nil, fmt.Errorf("thresh: group key was not dealt by an RSA dealer")
	}
	lambda, ok := d.secrets[rk]
	if !ok {
		return nil, fmt.Errorf("thresh: this dealer did not deal the given key")
	}
	if newK < 0 || newN < 1 || newK+1 > newN {
		return nil, fmt.Errorf("thresh: invalid threshold k=%d n=%d", newK, newN)
	}
	dExp := new(big.Int).ModInverse(rk.e, lambda)
	if dExp == nil {
		return nil, fmt.Errorf("thresh: e not invertible mod lambda")
	}
	shares, err := shamir.Split(dExp, newK, newN, lambda, d.Rand)
	if err != nil {
		return nil, fmt.Errorf("thresh: reshare private exponent: %w", err)
	}
	if err := rk.setShape(newK, newN); err != nil {
		return nil, err
	}
	rk.epoch++
	signers := make([]Signer, newN)
	for i, s := range shares {
		signers[i] = newRSASigner(rk, s.X, s.Y)
	}
	return signers, nil
}

// Reshare implements Dealer for the simulation scheme: the share keys
// are re-derived for the new player count from the key's deal-time root
// under the bumped epoch, so stale signers' partials stop verifying
// immediately.
func (d *SimDealer) Reshare(gk GroupKey, newK, newN int) ([]Signer, error) {
	sk, ok := gk.(*simGroupKey)
	if !ok {
		return nil, fmt.Errorf("thresh: group key was not dealt by a sim dealer")
	}
	if newK < 0 || newN < 1 || newK+1 > newN {
		return nil, fmt.Errorf("thresh: invalid threshold k=%d n=%d", newK, newN)
	}
	sk.epoch++
	sk.k, sk.n = newK, newN
	sk.shareKeys = make([][keyedmac.Size]byte, newN+1)
	signers := make([]Signer, newN)
	for i := 1; i <= newN; i++ {
		sk.shareKeys[i] = simDerive(sk.root[:], sk.epoch, i)
		signers[i-1] = &simSigner{index: i, key: sk.shareKeys[i]}
	}
	return signers, nil
}

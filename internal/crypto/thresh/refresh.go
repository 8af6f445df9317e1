package thresh

import (
	"fmt"
	"math/big"

	"innercircle/internal/crypto/keyedmac"
	"innercircle/internal/crypto/shamir"
)

// Refresh implements Dealer for the threshold RSA scheme
// (dealer-assisted: the dealer, who retains λ(N), deals a random degree-k
// polynomial with constant term zero and each new share is
// s'_i = s_i + z_i mod λ(N); the shared exponent — and thus the public
// key — is unchanged). Only the refreshed shares have verification keys
// afterwards, so no partial of the old epoch verifies.
func (d *RSADealer) Refresh(gk GroupKey, old []Signer) ([]Signer, error) {
	rk, ok := gk.(*rsaGroupKey)
	if !ok {
		return nil, fmt.Errorf("thresh: group key was not dealt by an RSA dealer")
	}
	lambda, ok := d.secrets[rk]
	if !ok {
		return nil, fmt.Errorf("thresh: this dealer did not deal the given key")
	}
	zeroShares, err := shamir.Split(big.NewInt(0), rk.k, rk.n, lambda, d.Rand)
	if err != nil {
		return nil, fmt.Errorf("thresh: refresh polynomial: %w", err)
	}
	for i, s := range old {
		if rs, ok := s.(*rsaSigner); !ok || rs.gk != rk {
			return nil, fmt.Errorf("thresh: signer %d does not belong to this key", i)
		}
	}
	rk.vk = make([]*big.Int, rk.n+1)
	out := make([]Signer, len(old))
	for i, s := range old {
		rs := s.(*rsaSigner)
		sum := new(big.Int).Add(rs.share, zeroShares[rs.index-1].Y)
		sum.Mod(sum, lambda)
		out[i] = newRSASigner(rk, rs.index, sum)
	}
	rk.epoch++
	return out, nil
}

// Refresh implements Dealer for the simulation scheme by re-deriving
// every share key under a bumped epoch. The group key object is updated in
// place (it is the shared verification oracle), so stale signers' partials
// stop verifying.
func (d *SimDealer) Refresh(gk GroupKey, old []Signer) ([]Signer, error) {
	sk, ok := gk.(*simGroupKey)
	if !ok {
		return nil, fmt.Errorf("thresh: group key was not dealt by a sim dealer")
	}
	sk.epoch++
	out := make([]Signer, len(old))
	for i, s := range old {
		ss, ok := s.(*simSigner)
		if !ok {
			return nil, fmt.Errorf("thresh: signer %d does not belong to this key", i)
		}
		key := simRefreshKey(sk.shareKeys[ss.index], sk.epoch)
		sk.shareKeys[ss.index] = key
		out[i] = &simSigner{index: ss.index, key: key}
	}
	return out, nil
}

// simRefreshKey derives a share key's successor for the given epoch from
// the key it replaces.
func simRefreshKey(prev [keyedmac.Size]byte, epoch uint64) [keyedmac.Size]byte {
	return simDerive(prev[:], epoch, 0)
}

package thresh

import "testing"

// BenchmarkPrecomputeRebuild isolates the rebuild of the Shoup constants
// (Δ = n!, 4Δ, the extended-Euclid pair, the emptied verification keys)
// a reshare performs on the group key, without the Shamir resplit or
// signer construction.
// scripts/bench times the whole reshare (thresh.reshare_us) and the
// dealerless keygen (thresh.dkg_rsa_ms); no probe times this part alone.
func BenchmarkPrecomputeRebuild(b *testing.B) {
	gk, _, err := seededRSA(1024, 11).Deal(2, 5)
	if err != nil {
		b.Fatal(err)
	}
	rk := gk.(*rsaGroupKey)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rk.setShape(2, 5); err != nil {
			b.Fatal(err)
		}
	}
}

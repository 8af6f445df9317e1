package nsl

import (
	"encoding/hex"
	mrand "math/rand"
	"testing"
)

// pinnedKeys are seeded keys with, per message, the hash-to-modulus value
// and the signature as hex literals produced by the math/big
// implementation this package replaced (commit 6bd83cd). Beacon and value
// signatures are hashed into replica results, so these bytes must never
// move. The messages cover both hash branches: an expansion already below
// N (seed 2 and 3, second and third message) and one that needs the
// reduction (seed 1, second message).
var pinnedKeys = []struct {
	bits int
	seed int64
	msgs []pinnedMsg
}{
	{512, 1, []pinnedMsg{
		{"", "3944d17aa63521ba6368e1f0f5623912674958a74c4f3575107c9ce7a15bab487350ad8fa5bf69b7f3fa94e5e53f21fc7da88ccd980e16a52341a5e8ab6b3020",
			"40b6cfe5cf1c70407c15ff432ca6a44c2a374203cca9130fd892c9b94ab43798e334e4e06d50c0110c8f65e52df32504dfb1e00fc47ac6d7a73707b58785f122"},
		{"beacon: neighbours of node 7", "1af017448ddf5d6738f1880a3dfffbbe4e4a1211ab1e46b13bd790798212a9c419be80c35bd2a0552ca03befad70f49f44479aec2a80ea939a14c569d01da3e2",
			"45dd7cbacc5aff99d52b5c1a14ae0f0783fbc780335fa06582e66ba35501654e6f556eae4ac9aec3961f730b44f65a0d5c7f011877119746d6b03e40c5b549fc"},
		{"value 42.5 @ t=100", "0a084222ac8dc86535b85a342c89f152634c20cd739c951e130970670b959524df282284a9a0a8335e9e8b63728be926b5c88916eba5eea258eb121fb68f8e74",
			"4d868bd7e5706eb6d0b9f00cc90b168ad1a45396625fa8ee711c63e7282e0e0906f3c91d76054315be0ded14488f8a251d3f4def3b4ed728e9061bcb0179adf6"},
	}},
	{512, 2, []pinnedMsg{
		{"", "1d5299d9e71cf371c4238a265572ba1a0d3dbbb02a7cfdd6862eb5d64f70a375d9d09792ad950b40f5c407e72d723ca1816a28e1ec46ed02f15847570325c216",
			"4f15a4f2f7e398dce979ec412c5715e12fa438d4368e217c6e6fbbd9552c17aeb7238f61217da91322da5fabd80c17fb4f670139d2fa4493a6f432cd92211e56"},
		{"beacon: neighbours of node 7", "76924ca662b8b1182ba532641d70ddf347789563a73ea8c403ae03486048ce7475dc0f44bede908dfd50329cb27e24c355e52cff9fe30cb02b497fc7273f17ff",
			"6f15983355eddfd3b96ec68f3aff36eb1f35a0bee9458c8ef27f0425f5b75ca111bec59fa9ed588952c313ee028cf4c072a8504f6c44af0f78ca0b746a98d0af"},
		{"value 42.5 @ t=100", "65aa778481671c16286c048e0bfad3875c7aa41f6fbcf730dadfe335e9cbb9d53b45b1060cac986c2f4e82107799194ac7661b2a610810beea1fcc7d0db10291",
			"189867324071368852d75429950acf5f49bab58d381f1c676d3b9fd4c05e686df99f36c1831d50658509fbef597b06fd632138a49c296f9e64006bc3c783dc25"},
	}},
	{1024, 3, []pinnedMsg{
		{"", "188bf266737f494890b84836b3ffe9a138561c95f839fa2193b1b628ac70ca3151558c70fcadf2252e67d1169b8fd70345159f81ba79ab0eb5924bb35920762d29cb32d4c6684bfe368a30e25c7e6dddf8df5bdebda29ad334b9895521e54dc7865a43e82fcb25cd5c81c8aa8f41092538967e6d17b57153432946c9057dbb08",
			"43aff963271f24bfcba6c461bd64404e07ffba0339c75ddcae1aed02e02de0ab66dd141c37a6de5e60bc9a0150384d2896d7758c5754fed806d9dea6fe015f41c3994d90033314edc19794af0bcadc3dd3ae10cb503039a746f84eab4a588500e2c766708bba8a605d4dd051f3b98dee2463e5da63f734f928d62e94ecdfe92b"},
		{"beacon: neighbours of node 7", "76924ca662b8b1182ba532641d70ddf347789563a73ea8c403ae03486048ce7475dc0f44bede908dfd50329cb27e24c355e52cff9fe30cb02b497fc7273f17ff66a9f3e92c03d7ccc85eaca902b8477e0a0961303f6cc08310cf61643cb2466c2ced50a7db3757b04253aec983d0f70e02351929acde10fdd8a218ebb40bb34a",
			"712c03e0c82c817260dfb6a13dc51eb67d0155cacf514b6cc9b413b425e17fdf911ca8e3dcbb1b9f2827cfa2d63cb0e367b42881f3abbf27143ccc85a820733eac694c73e6e575913be0fa6859846675d169d10b73d26466eed1bf6352cbb9a163e6854ff2d151444058a4d60438496c9bf3678fd769afc08f9c894f781b6209"},
		{"value 42.5 @ t=100", "65aa778481671c16286c048e0bfad3875c7aa41f6fbcf730dadfe335e9cbb9d53b45b1060cac986c2f4e82107799194ac7661b2a610810beea1fcc7d0db10291f8eb62735bf4bd0e806ef254202e112bd21ae240d2cb3acaab2da39163f3aad2de6bd2837ee16956d4e05a3660afe25f6fccfa9f2191f2246c78e7ffdaad1164",
			"611a65f8b5f1f35368c12f39a63ed3d22df8b7d2af227ce858a9810d090fff0d221227cf9c90edfe3f8bbba6fd17c3ae1bc22420d28cc0731bc17148617286dedd241d6550a07e468e87315fcf4149aabe76871fb80d29b9fc0e11508e1bd18c26f8301a728aa5e83f8359374180cc2592c84f52401dad064219740f64439a3b"},
	}},
}

type pinnedMsg struct{ msg, hash, sig string }

func pinnedKey(t *testing.T, bits int, seed int64) *KeyPair {
	t.Helper()
	kp, err := GenerateKeyPair(bits, mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func TestHashToModulusBytesPinned(t *testing.T) {
	for _, k := range pinnedKeys {
		kp := pinnedKey(t, k.bits, k.seed)
		for _, m := range k.msgs {
			if got := hex.EncodeToString(hashInt([]byte(m.msg), kp.Pub).Bytes()); got != m.hash {
				t.Errorf("bits=%d seed=%d msg=%q: hash %s, want %s", k.bits, k.seed, m.msg, got, m.hash)
			}
		}
	}
}

func TestSignatureBytesPinned(t *testing.T) {
	for _, k := range pinnedKeys {
		kp := pinnedKey(t, k.bits, k.seed)
		for _, m := range k.msgs {
			sig := kp.Sign([]byte(m.msg))
			if got := hex.EncodeToString(sig); got != m.sig {
				t.Errorf("bits=%d seed=%d msg=%q: signature %s, want %s", k.bits, k.seed, m.msg, got, m.sig)
			}
			if err := Verify(kp.Pub, []byte(m.msg), sig); err != nil {
				t.Errorf("bits=%d seed=%d msg=%q: %v", k.bits, k.seed, m.msg, err)
			}
		}
	}
}

package nsl

import (
	"errors"
	mrand "math/rand"
	"testing"
)

// setup creates three parties A, B, M (M is the adversary) sharing one
// directory. 512-bit keys keep the suite fast.
func setup(t *testing.T) (a, b, m *Party) {
	t.Helper()
	dir := DirectoryMap{}
	mk := func(id int64) *Party {
		kp, err := GenerateKeyPair(512, mrand.New(mrand.NewSource(id)))
		if err != nil {
			t.Fatal(err)
		}
		dir[id] = kp.Pub
		return NewParty(id, kp, dir, mrand.New(mrand.NewSource(100+id)))
	}
	return mk(1), mk(2), mk(3)
}

func TestHandshakeEstablishesSharedKey(t *testing.T) {
	a, b, _ := setup(t)
	m1, err := a.Initiate(b.ID())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b.OnMsg1(m1)
	if err != nil {
		t.Fatal(err)
	}
	m3, keyA, err := a.OnMsg2(b.ID(), m2)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := b.OnMsg3(a.ID(), m3)
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB {
		t.Fatal("parties derived different session keys")
	}
	if keyA == (SessionKey{}) {
		t.Fatal("session key is zero")
	}
}

func TestDistinctHandshakesDistinctKeys(t *testing.T) {
	a, b, _ := setup(t)
	run := func() SessionKey {
		m1, _ := a.Initiate(b.ID())
		m2, _ := b.OnMsg1(m1)
		m3, key, err := a.OnMsg2(b.ID(), m2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.OnMsg3(a.ID(), m3); err != nil {
			t.Fatal(err)
		}
		return key
	}
	if run() == run() {
		t.Fatal("two handshakes produced the same session key")
	}
}

func TestLoweAttackDetected(t *testing.T) {
	// The classic attack on the unfixed protocol: A initiates with M; M
	// decrypts {Na, A} and re-encrypts it for B, impersonating A. B's reply
	// {Na, Nb, B} is forwarded by M to A. In the *fixed* protocol A expects
	// the responder identity M inside the ciphertext but finds B, so A
	// aborts.
	a, b, m := setup(t)
	// A initiates with M (the adversary).
	m1, err := a.Initiate(m.ID())
	if err != nil {
		t.Fatal(err)
	}
	// M decrypts M1 and replays its content toward B as if from A: M
	// builds a fresh M1' for B using A's identity and nonce. We model M's
	// capability by having it process M1 legitimately and then re-initiate;
	// since M cannot forge A's nonce encryption for B without knowing Na,
	// the strongest move is re-encryption, which OnMsg1 permits (contents
	// are attacker-chosen). Here M knows Na because M1 was addressed to it.
	plain, err := m.kp.decrypt(m1.Cipher)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := encrypt(b.kp.Pub, plain, m.randSrc)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b.OnMsg1(Msg1{To: b.ID(), Cipher: forged})
	if err != nil {
		t.Fatal(err)
	}
	// M forwards B's M2 to A, claiming it came from M.
	if _, _, err := a.OnMsg2(m.ID(), m2); !errors.Is(err, ErrProtocol) {
		t.Fatalf("Lowe man-in-the-middle not detected: err = %v", err)
	}
}

func TestMsg2FromUnknownPeerRejected(t *testing.T) {
	a, b, _ := setup(t)
	m1, _ := a.Initiate(b.ID())
	m2, _ := b.OnMsg1(m1)
	// A never initiated with node 99.
	if _, _, err := a.OnMsg2(99, m2); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v, want ErrNoSession", err)
	}
}

func TestTamperedCiphertextRejected(t *testing.T) {
	a, b, _ := setup(t)
	m1, _ := a.Initiate(b.ID())
	m1.Cipher[0] ^= 0xFF
	if _, err := b.OnMsg1(m1); !errors.Is(err, ErrProtocol) {
		t.Fatalf("tampered M1 err = %v, want ErrProtocol", err)
	}
}

func TestWrongNonceInMsg3Rejected(t *testing.T) {
	a, b, _ := setup(t)
	m1, _ := a.Initiate(b.ID())
	m2, _ := b.OnMsg1(m1)
	if _, _, err := a.OnMsg2(b.ID(), m2); err != nil {
		t.Fatal(err)
	}
	// Forge an M3 with the wrong nonce.
	bad, err := encrypt(b.kp.Pub, make([]byte, NonceSize), mrand.New(mrand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OnMsg3(a.ID(), Msg3{To: b.ID(), Cipher: bad}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("forged M3 err = %v, want ErrProtocol", err)
	}
}

func TestReplayMsg3AfterCompletionRejected(t *testing.T) {
	a, b, _ := setup(t)
	m1, _ := a.Initiate(b.ID())
	m2, _ := b.OnMsg1(m1)
	m3, _, err := a.OnMsg2(b.ID(), m2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OnMsg3(a.ID(), m3); err != nil {
		t.Fatal(err)
	}
	if _, err := b.OnMsg3(a.ID(), m3); !errors.Is(err, ErrNoSession) {
		t.Fatalf("replayed M3 err = %v, want ErrNoSession", err)
	}
}

func TestUnknownDirectoryEntry(t *testing.T) {
	a, _, _ := setup(t)
	if _, err := a.Initiate(42); err == nil {
		t.Fatal("Initiate with unknown peer succeeded")
	}
}

func TestEncryptRoundTrip(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(1))
	kp, err := GenerateKeyPair(512, rnd)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("round trip payload")
	c, err := encrypt(kp.Pub, msg, rnd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kp.decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("decrypt = %q, want %q", got, msg)
	}
}

func TestEncryptTooLong(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(2))
	kp, err := GenerateKeyPair(256, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encrypt(kp.Pub, make([]byte, 100), rnd); err == nil {
		t.Fatal("oversized plaintext accepted")
	}
}

func TestGenerateKeyPairSeededDeterministic(t *testing.T) {
	// A seeded stream must reproduce the identical key pair — reproducible
	// sweeps depend on it (modulus bit lengths feed wire-size accounting).
	gen := func() *KeyPair {
		kp, err := GenerateKeyPair(512, mrand.New(mrand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		return kp
	}
	a, b := gen(), gen()
	if a.Pub.N.Cmp(b.Pub.N) != 0 || a.d.Cmp(b.d) != 0 {
		t.Fatal("same-seeded streams produced different key pairs")
	}
	// The keys still work.
	msg := []byte("seeded key sanity")
	if err := Verify(a.Pub, msg, a.Sign(msg)); err != nil {
		t.Fatal(err)
	}
	c, err := GenerateKeyPair(512, mrand.New(mrand.NewSource(100)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Pub.N.Cmp(c.Pub.N) == 0 {
		t.Fatal("different seeds produced the same modulus (suspicious)")
	}
}

// TestNilReaderIsAnError pins that randomness always comes from the
// caller's stream: every draw given a nil reader fails instead of falling
// back to a default source.
func TestNilReaderIsAnError(t *testing.T) {
	if _, err := Prime(nil, 256); err == nil {
		t.Error("Prime(nil) succeeded")
	}
	if _, err := GenerateKeyPair(512, nil); err == nil {
		t.Error("GenerateKeyPair(nil) succeeded")
	}
	a, b, _ := setup(t)
	if _, err := encrypt(b.kp.Pub, []byte("x"), nil); err == nil {
		t.Error("encrypt(nil) succeeded")
	}
	a.randSrc = nil
	if _, err := a.Initiate(b.ID()); err == nil {
		t.Error("Initiate by a party with a nil reader succeeded")
	}
}

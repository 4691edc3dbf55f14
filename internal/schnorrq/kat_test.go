package schnorrq

import (
	"encoding/hex"
	"testing"
)

// SchnorrQ keys and signatures derive deterministically from seeds, so
// seed/message pairs pin the whole stack (hashing, scalar field, curve,
// encoding) against regressions; the scalar-multiplication layer is
// additionally literal-pinned by internal/curve/testdata/smul_kat.txt.
// pub and sig are the hex-encoded compressed public key and signature,
// generated with the variable-base curve.ScalarMult; the fixed-base
// table that key derivation and signing use must reproduce them byte
// for byte.
var katCases = []struct {
	seedByte byte
	msg      string
	pub, sig string
}{
	{0x00, "",
		"833c62105a94acd539ddfd39a2ea386156483c4acbf4cb6dbbab6d2ef7d184b6",
		"0c7e90860af1ba309641b2c17f0cff6fdf4d405f1d0399a40a6724707a158d2a29edc657178b86539284daed5655dd28f33c6954c3f88ed11dce54523cd41300"},
	{0x01, "a",
		"8f1dff022b60dc54c31677f6720a9b517d90bb941b712107a5323f01b9619b4a",
		"de2ad8f0d3244dd9b4eeb5e6ebce89227a79fa99c1c30c8c25d4d1c8acf7b0148e41e3be5c5d8bcb1d6d83c4182789a583f69d900339e1508eda9930cef70e00"},
	{0x42, "fourq schnorrq kat",
		"6c3b63900f013c3cd0898037be09875ee103d17dbab1023ffe2cb236e9e35e17",
		"433d32ac9fdcf6776cdb2b7622050813f1ecca642a25d2a406da7e7042abadb40e7ff600ceba4d4c103287efce389d361b43eae9567144a491fbfee706541c00"},
	{0xFF, "the quick brown fox jumps over the lazy dog",
		"4a43f5b001aa66eb8d4ac4fb75b793574923e48f40ea942d34036b3fc11e2d43",
		"47377e97bcb0c88ee418da25688c31133d56d83548a533504080567b5a50cb2c6936b848ef9825bd1c5c232f19272604cb0555c2452736152a9cf1ac9d322800"},
}

// katSeed expands a case's seed byte into the 32-byte seed it names.
func katSeed(b byte) [SeedSize]byte {
	var seed [SeedSize]byte
	for j := range seed {
		seed[j] = b ^ byte(j)
	}
	return seed
}

// TestSignatureKATs pins key derivation and signing to the literal
// public keys and signatures, and checks that each one verifies.
func TestSignatureKATs(t *testing.T) {
	for i, c := range katCases {
		k, err := NewKeyFromSeed(katSeed(c.seedByte))
		if err != nil {
			t.Fatal(err)
		}
		pub := k.Public.Bytes()
		if got := hex.EncodeToString(pub[:]); got != c.pub {
			t.Fatalf("case %d: public key %s, want %s", i, got, c.pub)
		}
		sig := k.Sign([]byte(c.msg))
		if got := hex.EncodeToString(sig[:]); got != c.sig {
			t.Fatalf("case %d: signature %s, want %s", i, got, c.sig)
		}
		if !Verify(&k.Public, []byte(c.msg), sig[:]) {
			t.Fatalf("case %d: KAT signature does not verify", i)
		}
	}
}

func TestSignatureKATsSelfConsistent(t *testing.T) {
	// Cross-run determinism: the same seed and message must produce the
	// same signature in two independent derivations, and distinct
	// seeds/messages must produce distinct signatures.
	seen := map[string]bool{}
	for i, c := range katCases {
		seed := katSeed(c.seedByte)
		k1, err := NewKeyFromSeed(seed)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := NewKeyFromSeed(seed)
		if err != nil {
			t.Fatal(err)
		}
		s1 := k1.Sign([]byte(c.msg))
		s2 := k2.Sign([]byte(c.msg))
		h1 := hex.EncodeToString(s1[:])
		if h1 != hex.EncodeToString(s2[:]) {
			t.Fatalf("case %d: non-deterministic signature", i)
		}
		if seen[h1] {
			t.Fatalf("case %d: signature collision across cases", i)
		}
		seen[h1] = true
	}
}

// Package schnorrq implements a SchnorrQ-style signature scheme over
// FourQ: the Schnorr variant the FourQ authors pair with the curve
// (deterministic nonces, hash-derived keys). It complements the ECDSA
// implementation as the second signature workload for the modelled
// accelerator; signing costs one fixed-base scalar multiplication and
// verification one double-scalar multiplication, exactly the operations
// the ASIC accelerates.
//
// Scheme (following the SchnorrQ design):
//
//	key:    d <- SHA-512(seed)[:32] reduced mod N;  A = [d]G
//	sign:   r = SHA-512(seed[32:] || m) mod N; R = [r]G
//	        h = SHA-512(enc(R) || enc(A) || m) mod N
//	        s = r - h*d mod N; signature = (enc(R), s)
//	verify: h = SHA-512(enc(R) || enc(A) || m) mod N
//	        accept iff [s]G + [h]A == R
package schnorrq

import (
	"crypto/sha512"
	"errors"
	"io"
	"math/big"

	"repro/internal/curve"
	"repro/internal/scalar"
)

// SeedSize is the private seed length.
const SeedSize = 32

// SignatureSize is the encoded signature length: a compressed point plus
// a 32-byte scalar.
const SignatureSize = curve.Size + scalar.Size

// PrivateKey holds the seed and the derived signing material.
type PrivateKey struct {
	seed   [SeedSize]byte
	d      scalar.Scalar
	prefix [32]byte // nonce-derivation secret (second half of the seed hash)
	Public PublicKey
}

// PublicKey is the point A = [d]G with its cached encoding.
type PublicKey struct {
	A   curve.Point
	enc [curve.Size]byte
}

// Bytes returns the compressed public key.
func (p *PublicKey) Bytes() [curve.Size]byte { return p.enc }

// PublicKeyFromBytes decodes a compressed public key.
func PublicKeyFromBytes(b []byte) (*PublicKey, error) {
	pt, err := curve.FromBytes(b)
	if err != nil {
		return nil, err
	}
	var pk PublicKey
	pk.A = pt
	copy(pk.enc[:], b)
	return &pk, nil
}

// hashToScalar reduces SHA-512 output modulo the group order.
func hashToScalar(parts ...[]byte) scalar.Scalar {
	h := sha512.New()
	for _, p := range parts {
		h.Write(p)
	}
	sum := h.Sum(nil)
	v := new(big.Int).SetBytes(sum)
	v.Mod(v, scalar.Order())
	return scalar.FromBig(v)
}

// GenerateKey draws a random seed from rand and derives the key pair.
func GenerateKey(rand io.Reader) (*PrivateKey, error) {
	var seed [SeedSize]byte
	if _, err := io.ReadFull(rand, seed[:]); err != nil {
		return nil, err
	}
	return NewKeyFromSeed(seed)
}

// NewKeyFromSeed deterministically derives a key pair from a seed. The
// secret scalar multiplication [d]G runs on the constant-time
// fixed-base walk.
func NewKeyFromSeed(seed [SeedSize]byte) (*PrivateKey, error) {
	expanded := sha512.Sum512(seed[:])
	k := &PrivateKey{seed: seed}
	copy(k.prefix[:], expanded[32:])
	k.d = hashToScalar(expanded[:32])
	if k.d.IsZero() {
		return nil, errors.New("schnorrq: degenerate seed")
	}
	k.Public.A = curve.ScalarBaseMult(k.d)
	k.Public.enc = k.Public.A.Bytes()
	return k, nil
}

// Seed returns the private seed.
func (k *PrivateKey) Seed() [SeedSize]byte { return k.seed }

// Sign produces a deterministic signature of msg. The nonce
// multiplication [r]G runs on the constant-time fixed-base walk.
func (k *PrivateKey) Sign(msg []byte) [SignatureSize]byte {
	r := hashToScalar(k.prefix[:], msg)
	if r.IsZero() {
		// Degenerate with negligible probability; perturb determin-
		// istically so the nonce is never zero.
		r = scalar.FromUint64(1)
	}
	R := curve.ScalarBaseMult(r)
	Renc := R.Bytes()
	h := hashToScalar(Renc[:], k.Public.enc[:], msg)
	s := scalar.SubModN(r, scalar.MulModN(h, k.d))

	var sig [SignatureSize]byte
	copy(sig[:curve.Size], Renc[:])
	sb := s.Bytes()
	copy(sig[curve.Size:], sb[:])
	return sig
}

// Verify checks a signature against the public key.
func Verify(pub *PublicKey, msg []byte, sig []byte) bool {
	if len(sig) != SignatureSize {
		return false
	}
	R, err := curve.FromBytes(sig[:curve.Size])
	if err != nil {
		return false
	}
	s, err := scalar.FromBytes(sig[curve.Size:])
	if err != nil {
		return false
	}
	// s must be canonical (< N).
	if s.Big().Cmp(scalar.Order()) >= 0 {
		return false
	}
	h := hashToScalar(sig[:curve.Size], pub.enc[:], msg)
	// [s]G + [h]A == R
	lhs := curve.DoubleScalarMult(s, curve.Generator(), h, pub.A)
	return lhs.Equal(R)
}

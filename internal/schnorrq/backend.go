package schnorrq

import (
	"context"
	"errors"

	"repro/internal/curve"
	"repro/internal/scalar"
)

// ScalarMulter is a pluggable backend for the scheme's scalar
// multiplications, satisfied by internal/engine.Engine: SignWith and
// VerifyWith route every [k]P through it instead of the in-process
// functional model, so signatures can be produced and checked on the
// modeled accelerator (or any other offload path).
type ScalarMulter interface {
	// ScalarMultAffine computes [k]base.
	ScalarMultAffine(ctx context.Context, k scalar.Scalar, base curve.Affine) (curve.Affine, error)
	// ScalarMultFixedBase computes [k]G, on a cheaper dedicated
	// schedule where the backend has one (internal/engine routes it to
	// the fixed-base comb microprogram). Signing's commitment, its only
	// curve operation, takes it; verification's [h]A is genuinely
	// variable-base and stays on ScalarMultAffine.
	ScalarMultFixedBase(ctx context.Context, k scalar.Scalar) (curve.Affine, error)
}

// SignWith produces the same deterministic signature as Sign, computing
// the commitment R = [r]G on the backend's fixed-base path.
func (k *PrivateKey) SignWith(ctx context.Context, sm ScalarMulter, msg []byte) ([SignatureSize]byte, error) {
	var sig [SignatureSize]byte
	r := hashToScalar(k.prefix[:], msg)
	if r.IsZero() {
		r = scalar.FromUint64(1) // mirror Sign's degenerate-nonce fallback
	}
	Ra, err := sm.ScalarMultFixedBase(ctx, r)
	if err != nil {
		return sig, err
	}
	Renc := curve.FromAffine(Ra).Bytes()
	h := hashToScalar(Renc[:], k.Public.enc[:], msg)
	s := scalar.SubModN(r, scalar.MulModN(h, k.d))

	copy(sig[:curve.Size], Renc[:])
	sb := s.Bytes()
	copy(sig[curve.Size:], sb[:])
	return sig, nil
}

// VerifyWith checks a signature like Verify, computing the two scalar
// multiplications [s]G and [h]A on the backend and combining them with
// one functional point addition. The bool is the verdict; the error
// reports a backend failure (on which the verdict is meaningless).
func VerifyWith(ctx context.Context, sm ScalarMulter, pub *PublicKey, msg, sig []byte) (bool, error) {
	if len(sig) != SignatureSize {
		return false, nil
	}
	R, err := curve.FromBytes(sig[:curve.Size])
	if err != nil {
		return false, nil
	}
	s, err := scalar.FromBytes(sig[curve.Size:])
	if err != nil {
		return false, nil
	}
	if s.Big().Cmp(scalar.Order()) >= 0 {
		return false, nil
	}
	h := hashToScalar(sig[:curve.Size], pub.enc[:], msg)

	sG, err := sm.ScalarMultAffine(ctx, s, curve.GeneratorAffine())
	if err != nil {
		return false, err
	}
	hA, err := sm.ScalarMultAffine(ctx, h, pub.A.Affine())
	if err != nil {
		return false, err
	}
	lhs := curve.Add(curve.FromAffine(sG), curve.FromAffine(hA))
	return lhs.Equal(R), nil
}

// FuncScalarMulter adapts the pure functional curve model to the
// ScalarMulter interface — the software fallback and the differential
// reference for engine-backed signing.
type FuncScalarMulter struct{}

// ScalarMultFixedBase computes [k]G in software on the constant-time
// generator table, the same walk Sign uses for the secret nonce.
func (FuncScalarMulter) ScalarMultFixedBase(_ context.Context, k scalar.Scalar) (curve.Affine, error) {
	return curve.ScalarBaseMult(k).Affine(), nil
}

// ScalarMultAffine computes [k]base in software.
func (FuncScalarMulter) ScalarMultAffine(_ context.Context, k scalar.Scalar, base curve.Affine) (curve.Affine, error) {
	if !base.IsOnCurveAffine() {
		return curve.Affine{}, errors.New("schnorrq: base point not on curve")
	}
	return curve.ScalarMult(k, curve.FromAffine(base)).Affine(), nil
}

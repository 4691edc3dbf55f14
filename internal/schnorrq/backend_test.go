package schnorrq

import (
	"context"
	"crypto/rand"
	"testing"

	"repro/internal/curve"
	"repro/internal/scalar"
)

// TestSignWithMatchesSign pins the backend-routed signing path to the
// plain software path: same key, same message, byte-identical signature.
func TestSignWithMatchesSign(t *testing.T) {
	k, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("engine-routed signing must be bit-compatible")
	got, err := k.SignWith(context.Background(), FuncScalarMulter{}, msg)
	if err != nil {
		t.Fatal(err)
	}
	if want := k.Sign(msg); got != want {
		t.Fatalf("SignWith = %x, Sign = %x", got[:16], want[:16])
	}
}

// spyScalarMulter counts which backend method served each request so the
// routing decision is observable.
type spyScalarMulter struct {
	variable, fixed int
}

func (s *spyScalarMulter) ScalarMultAffine(_ context.Context, k scalar.Scalar, base curve.Affine) (curve.Affine, error) {
	s.variable++
	return curve.ScalarMult(k, curve.FromAffine(base)).Affine(), nil
}

func (s *spyScalarMulter) ScalarMultFixedBase(_ context.Context, k scalar.Scalar) (curve.Affine, error) {
	s.fixed++
	return curve.ScalarMult(k, curve.Generator()).Affine(), nil
}

// TestSignWithRoutesFixedBase pins the request-class split: the
// backend gets signing's [r]G on its fixed-base method (bit-compatible
// signature), while verification keeps [s]G and [h]A on the
// variable-base method.
func TestSignWithRoutesFixedBase(t *testing.T) {
	ctx := context.Background()
	k, err := NewKeyFromSeed([32]byte{9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("commitment rides the comb")
	spy := &spyScalarMulter{}
	sig, err := k.SignWith(ctx, spy, msg)
	if err != nil {
		t.Fatal(err)
	}
	if sig != k.Sign(msg) {
		t.Fatal("fixed-base-routed signature differs from software signature")
	}
	if spy.fixed != 1 || spy.variable != 0 {
		t.Fatalf("signing used fixed=%d variable=%d backend calls, want 1/0", spy.fixed, spy.variable)
	}
	ok, err := VerifyWith(ctx, spy, &k.Public, msg, sig[:])
	if err != nil || !ok {
		t.Fatalf("verification failed: ok=%v err=%v", ok, err)
	}
	if spy.fixed != 1 || spy.variable != 2 {
		t.Fatalf("verification used fixed=%d variable=%d backend calls, want 1/2", spy.fixed, spy.variable)
	}
}

func TestVerifyWith(t *testing.T) {
	ctx := context.Background()
	k, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("message under test")
	sig := k.Sign(msg)

	ok, err := VerifyWith(ctx, FuncScalarMulter{}, &k.Public, msg, sig[:])
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid signature rejected by backend verification")
	}
	ok, err = VerifyWith(ctx, FuncScalarMulter{}, &k.Public, []byte("tampered"), sig[:])
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tampered message accepted by backend verification")
	}
	bad := sig
	bad[0] ^= 1
	if ok, _ := VerifyWith(ctx, FuncScalarMulter{}, &k.Public, msg, bad[:]); ok {
		t.Fatal("corrupted signature accepted")
	}
	if ok, _ := VerifyWith(ctx, FuncScalarMulter{}, &k.Public, msg, sig[:10]); ok {
		t.Fatal("truncated signature accepted")
	}
}

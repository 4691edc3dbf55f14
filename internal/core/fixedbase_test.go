package core

import (
	mrand "math/rand"
	"testing"

	"repro/internal/curve"
	"repro/internal/rtl"
	"repro/internal/scalar"
)

// sharedFBProcessor is the FixedBase-enabled counterpart of
// sharedProcessor, built once per test binary.
var sharedFBProcessor *Processor

func getFBProcessor(t testing.TB) *Processor {
	t.Helper()
	if sharedFBProcessor == nil {
		p, err := New(Config{FixedBase: true})
		if err != nil {
			t.Fatal(err)
		}
		sharedFBProcessor = p
	}
	return sharedFBProcessor
}

func TestFixedBaseGated(t *testing.T) {
	p := getProcessor(t)
	if p.HasFixedBase() {
		t.Fatal("default Config built the fixed-base program")
	}
	// The processor and the executor both degrade gracefully to the
	// variable-base program.
	k := scalar.Scalar{5, 6, 7, 8}
	want := curve.ScalarMult(k, curve.Generator()).Affine()
	runs := map[string]func() (curve.Affine, rtl.Stats, error){
		"processor": func() (curve.Affine, rtl.Stats, error) { return p.ScalarMultFixedBase(k) },
		"executor": func() (curve.Affine, rtl.Stats, error) {
			return runOne(p.NewExecutor(), ProgramFixedBase, k, curve.Affine{}, ValidateOracle)
		},
	}
	for name, run := range runs {
		got, st, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
			t.Fatalf("%s: fallback fixed-base result differs from library", name)
		}
		if st.Cycles != p.CyclesFunctional() {
			t.Fatalf("%s: fallback ran %d cycles, want the variable-base %d", name, st.Cycles, p.CyclesFunctional())
		}
	}
}

func TestFixedBaseCacheKeyDistinct(t *testing.T) {
	if (Config{}).CacheKey() == (Config{FixedBase: true}.CacheKey()) {
		t.Fatal("FixedBase does not differentiate the cache key")
	}
}

func TestFixedBaseMakespan(t *testing.T) {
	p := getFBProcessor(t)
	if !p.HasFixedBase() {
		t.Fatal("FixedBase config did not build the program")
	}
	fb, vb := p.FixedBaseScheduleResult().Makespan, p.CyclesFunctional()
	// The comb trades the doubling chain for ROM: the ISSUE gate is
	// fb <= vb/2 even against the portfolio-optimized variable-base
	// schedule, and default list scheduling already clears it.
	if fb == 0 || fb > vb/2 {
		t.Fatalf("fixed-base makespan %d not below half the variable-base %d", fb, vb)
	}
	t.Logf("makespan: fixedbase=%d variable=%d (%.2fx)", fb, vb, float64(fb)/float64(vb))
}

func TestFixedBaseMatchesLibrary(t *testing.T) {
	p := getFBProcessor(t)
	e := p.NewExecutor()
	rng := mrand.New(mrand.NewSource(31))
	scalars := []scalar.Scalar{
		{}, {1}, {42},
		scalar.FromBig(scalar.Order()),
		{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
		{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()},
		{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()},
	}
	for i, k := range scalars {
		want := curve.ScalarMult(k, curve.Generator()).Affine()
		got, _, err := p.ScalarMultFixedBase(k)
		if err != nil {
			t.Fatalf("scalar %d: processor: %v", i, err)
		}
		if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
			t.Fatalf("scalar %d: processor fixed-base result differs from library", i)
		}
		got, _, err = runOne(e, ProgramFixedBase, k, curve.Affine{}, ValidateOracle)
		if err != nil {
			t.Fatalf("scalar %d: executor: %v", i, err)
		}
		if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
			t.Fatalf("scalar %d: executor fixed-base result differs from library", i)
		}
	}
}

func TestFixedBaseLanesParity(t *testing.T) {
	p := getFBProcessor(t)
	e := p.NewExecutor()
	rng := mrand.New(mrand.NewSource(32))
	const n = 5
	ks := make([]scalar.Scalar, n)
	for i := range ks {
		ks[i] = scalar.Scalar{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
	ks[2] = scalar.Scalar{2} // even: correction path in one lane only
	outs := make([]curve.Affine, n)
	errs := make([]error, n)
	if _, err := e.ScalarMultBatch(ProgramFixedBase, ks, nil, outs, errs, ValidateOracle); err != nil {
		t.Fatal(err)
	}
	for l, k := range ks {
		if errs[l] != nil {
			t.Fatalf("lane %d: %v", l, errs[l])
		}
		want := curve.ScalarMult(k, curve.Generator()).Affine()
		if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
			t.Fatalf("lane %d: lockstep fixed-base result differs from library", l)
		}
	}
}

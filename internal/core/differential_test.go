package core

import (
	"flag"
	"math/rand"
	"testing"

	"repro/internal/curve"
	"repro/internal/scalar"
	"repro/internal/sched"
)

var diffTrials = flag.Int("difftrials", 8, "random scalars for the RTL-vs-functional differential test")

// TestDifferentialRTLvsFunctional is the differential oracle for every
// parallel execution path: it runs scalars through Processor.ScalarMult
// (the cycle-accurate RTL datapath) and through the pure functional
// curve model and requires bit-identical affine results. Edge scalars
// (zero, one, the group order, all-ones) are always included; the rest
// are drawn from a seeded PRNG so failures replay.
func TestDifferentialRTLvsFunctional(t *testing.T) {
	p := getProcessor(t)

	edges := []scalar.Scalar{
		{},                             // k = 0: [0]G must be the identity via the corrected path
		{1},                            // k = 1
		{2},                            // k = 2: smallest even (corrected) scalar
		scalar.FromBig(scalar.Order()), // k = N
		{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}, // k = 2^256 - 1
	}
	rng := rand.New(rand.NewSource(0x5eed))
	ks := edges
	for i := 0; i < *diffTrials; i++ {
		ks = append(ks, scalar.Scalar{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()})
	}

	g := curve.Generator()
	for _, k := range ks {
		got, st, err := p.ScalarMult(k)
		if err != nil {
			t.Fatalf("RTL run for k=%v: %v", k, err)
		}
		if st.Cycles != p.CyclesFunctional() {
			t.Errorf("k=%v: run took %d cycles, program makespan %d", k, st.Cycles, p.CyclesFunctional())
		}
		want := curve.ScalarMult(k, g).Affine()
		if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
			t.Errorf("k=%v: RTL (%v,%v) != functional (%v,%v)", k, got.X, got.Y, want.X, want.Y)
		}
	}
}

// TestExecutorChecked exercises the oracle-validated batch entry point
// the engine's workers use: it must agree with the plain path and
// accumulate per-executor statistics.
func TestExecutorChecked(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	g := curve.GeneratorAffine()
	for i := uint64(1); i <= 3; i++ {
		k := scalar.Scalar{i, i ^ 0xABCD, 0, i << 32}
		got, _, err := runOne(ex, ProgramVariableBase, k, g, ValidateOracle)
		if err != nil {
			t.Fatalf("checked run %d: %v", i, err)
		}
		plain, _, err := p.ScalarMult(k)
		if err != nil {
			t.Fatal(err)
		}
		if !got.X.Equal(plain.X) || !got.Y.Equal(plain.Y) {
			t.Fatalf("checked and plain executor paths disagree for k=%v", k)
		}
	}
	if ex.Runs() != 3 {
		t.Errorf("executor runs = %d, want 3", ex.Runs())
	}
	if ex.Cycles() != 3*int64(p.CyclesFunctional()) {
		t.Errorf("executor cycles = %d, want %d", ex.Cycles(), 3*p.CyclesFunctional())
	}
}

// TestConfigCacheKey pins the normalization contract: the zero Config
// and a spelled-out default configuration must share one cache entry,
// while a genuinely different datapath must not.
func TestConfigCacheKey(t *testing.T) {
	def := Config{}.CacheKey()
	spelled := Config{Resources: sched.DefaultResources(), TraceScalar: DefaultTraceScalar()}.CacheKey()
	if def != spelled {
		t.Errorf("zero config key %+v != spelled-out default key %+v", def, spelled)
	}
	narrow := Config{}
	narrow.Resources = sched.DefaultResources()
	narrow.Resources.MulII = 3
	if narrow.CacheKey() == def {
		t.Error("narrow-multiplier config must not share the default cache key")
	}
}

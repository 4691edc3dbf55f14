package core

import (
	"errors"
	"testing"

	"repro/internal/curve"
	"repro/internal/fp2"
	"repro/internal/isa"
	"repro/internal/rtl"
	"repro/internal/scalar"
)

// outputSwapper is a minimal rtl.Injector that replaces every value
// retiring into the named registers, steering the datapath's decoded
// result to an attacker-chosen point while leaving the run structurally
// clean. It is how the tests reach the validation paths that random bit
// flips rarely hit (a corrupted result that is still on the curve).
type outputSwapper struct {
	xReg, yReg uint16
	x, y       fp2.Element
}

func (s *outputSwapper) BeginCycle(int, rtl.RegFile) {}
func (s *outputSwapper) Fetch(_ int, ins isa.Instr) (isa.Instr, bool) {
	return ins, true
}
func (s *outputSwapper) Forward(_ int, _ uint8, v fp2.Element) fp2.Element { return v }
func (s *outputSwapper) Retire(_ int, _ uint8, dst uint16, v fp2.Element) fp2.Element {
	switch dst {
	case s.xReg:
		return s.x
	case s.yReg:
		return s.y
	}
	return v
}

// runOne runs a single lane of ex.ScalarMultBatch at level v and returns
// the lane's point (raw, on a validation failure) with its error.
func runOne(ex *Executor, prog ProgramID, k scalar.Scalar, base curve.Affine, v Validate) (curve.Affine, rtl.Stats, error) {
	outs, errs := make([]curve.Affine, 1), make([]error, 1)
	st, err := ex.ScalarMultBatch(prog, []scalar.Scalar{k}, []curve.Affine{base}, outs, errs, v)
	if err == nil {
		err = errs[0]
	}
	return outs[0], st, err
}

func swapperFor(t *testing.T, p *Processor, to curve.Affine) *outputSwapper {
	t.Helper()
	outs := p.Program().OutputRegs
	xr, okx := outs["x"]
	yr, oky := outs["y"]
	if !okx || !oky {
		t.Fatalf("program outputs missing x/y: %v", outs)
	}
	return &outputSwapper{xReg: xr, yReg: yr, x: to.X, y: to.Y}
}

// TestScalarMultCheckedMismatchPath: under oracle validation, a
// corrupted result that still lies on the curve must come back as
// ErrOracleMismatch, never as a wrong point.
func TestScalarMultCheckedMismatchPath(t *testing.T) {
	p := getProcessor(t)
	k := DefaultTraceScalar()
	// A valid curve point that is NOT [k]G: the cheap structural checks
	// accept it, only the oracle recompute can tell it apart.
	wrong := curve.ScalarMult(scalar.FromUint64(3), curve.Generator()).Affine()
	if !wrong.IsOnCurveAffine() {
		t.Fatal("test fixture: wrong point must be on the curve")
	}
	ex := p.NewExecutor()
	ex.SetInjector(swapperFor(t, p, wrong))
	got, _, err := runOne(ex, ProgramVariableBase, k, curve.GeneratorAffine(), ValidateOracle)
	if err == nil {
		t.Fatal("oracle validation accepted a corrupted on-curve result")
	}
	if !errors.Is(err, ErrOracleMismatch) {
		t.Fatalf("err = %v, want ErrOracleMismatch", err)
	}
	// The raw point still comes back for diagnosis.
	if !got.X.Equal(wrong.X) || !got.Y.Equal(wrong.Y) {
		t.Fatal("mismatch error did not carry the corrupted point")
	}
}

// TestScalarMultCheckedHappyPath pins that oracle validation returns
// clean results when the datapath is honest.
func TestScalarMultCheckedHappyPath(t *testing.T) {
	p := getProcessor(t)
	k := DefaultTraceScalar()
	got, st, err := runOne(p.NewExecutor(), ProgramVariableBase, k, curve.GeneratorAffine(), ValidateOracle)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles <= 0 {
		t.Fatal("missing run statistics")
	}
	want := curve.ScalarMult(k, curve.Generator()).Affine()
	if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
		t.Fatal("checked result differs from oracle on a clean run")
	}
}

// TestValidateOnCurveCatchesOffCurveResult drives the cheap structural
// check: steer the output to a word that satisfies no curve equation.
func TestValidateOnCurveCatchesOffCurveResult(t *testing.T) {
	p := getProcessor(t)
	bogus := curve.Affine{X: fp2.FromUint64(2, 3), Y: fp2.FromUint64(5, 7)}
	if bogus.IsOnCurveAffine() {
		t.Fatal("test fixture: bogus point must be off the curve")
	}
	ex := p.NewExecutor()
	ex.SetInjector(swapperFor(t, p, bogus))
	_, _, err := runOne(ex, ProgramVariableBase, DefaultTraceScalar(), curve.GeneratorAffine(), ValidateOnCurve)
	if !errors.Is(err, ErrOffCurve) {
		t.Fatalf("err = %v, want ErrOffCurve", err)
	}
	// ValidateNone must hand the corrupted word through untouched: the
	// caller explicitly opted out of self-checking.
	got, _, err := runOne(ex, ProgramVariableBase, DefaultTraceScalar(), curve.GeneratorAffine(), ValidateNone)
	if err != nil {
		t.Fatalf("ValidateNone rejected the run: %v", err)
	}
	if !got.X.Equal(bogus.X) {
		t.Fatal("ValidateNone did not deliver the raw datapath output")
	}
}

// TestValidateAffineDegenerate covers the Z=0 image: the all-zero word
// gets its own sentinel so the root cause survives into logs.
func TestValidateAffineDegenerate(t *testing.T) {
	if err := ValidateAffine(curve.Affine{}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("zero point: err = %v, want ErrDegenerate", err)
	}
	if err := ValidateAffine(curve.GeneratorAffine()); err != nil {
		t.Fatalf("generator rejected: %v", err)
	}
	id := curve.Identity().Affine()
	if err := ValidateAffine(id); err != nil {
		t.Fatalf("identity (a legal SM result for k = order) rejected: %v", err)
	}
}

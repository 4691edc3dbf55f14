package rtl

import (
	mrand "math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/scalar"
	"repro/internal/sched"
	"repro/internal/trace"
)

// fixedBaseSetup builds and schedules the fixed-base comb program for
// the generator.
func fixedBaseSetup(t testing.TB, seed int64) *CompiledProgram {
	t.Helper()
	rng := mrand.New(mrand.NewSource(seed))
	tr, err := trace.BuildFixedBaseScalarMult(randScalar(rng), curve.GeneratorAffine())
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.Schedule(tr.Graph, sched.DefaultResources(), sched.Options{Method: sched.MethodList})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(r.Program)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestFixedBaseOnRTL(t *testing.T) {
	if testing.Short() {
		t.Skip("full fixed-base SM on RTL is slow")
	}
	cp := fixedBaseSetup(t, 21)
	if cp.NumInputs() != 0 {
		t.Fatalf("fixed-base program has %d inputs, want 0", cp.NumInputs())
	}
	if cp.Stats().ROMReads == 0 {
		t.Fatal("fixed-base program performs no ROM reads")
	}
	lm := cp.NewLaneMachine(1)
	xr, _ := cp.OutputReg("x")
	yr, _ := cp.OutputReg("y")

	rng := mrand.New(mrand.NewSource(22))
	scalars := []scalar.Scalar{
		randScalar(rng), randScalar(rng),
		{},   // 0: corrected, identity result
		{42}, // even: correction path
		scalar.FromBig(scalar.Order()),
		{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
	}
	for i, k := range scalars {
		rec, corrected := scalar.RecodeFixedBase(k)
		in := RunInput{Rec: rec, Corrected: corrected}
		if _, err := runLane(lm, in); err != nil {
			t.Fatalf("scalar %d: %v", i, err)
		}
		want := curve.ScalarMult(k, curve.Generator()).Affine()
		if !lm.Reg(0, xr).Equal(want.X) || !lm.Reg(0, yr).Equal(want.Y) {
			t.Fatalf("scalar %d: compiled fixed-base result differs from library", i)
		}
		// Interpreter differential: same outputs, same statistics (the
		// compiled path precomputes them; the interpreter counts live).
		out, ist, err := Interpret(cp.Program(), in)
		if err != nil {
			t.Fatalf("scalar %d: interpret: %v", i, err)
		}
		if !out["x"].Equal(want.X) || !out["y"].Equal(want.Y) {
			t.Fatalf("scalar %d: interpreted fixed-base result differs from library", i)
		}
		if i == 0 {
			cst := cp.Stats()
			if !reflect.DeepEqual(cst, ist) {
				t.Fatalf("compiled stats %+v differ from interpreted %+v", cst, ist)
			}
			t.Logf("fixed-base SM: %d cycles, %d muls, %d ROM reads",
				cst.Cycles, cst.MulIssues, cst.ROMReads)
		}
	}
}

func TestFixedBaseLanesOnRTL(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep fixed-base SM on RTL is slow")
	}
	cp := fixedBaseSetup(t, 23)
	const width = 4
	lm := cp.NewLaneMachine(width)
	xr, _ := cp.OutputReg("x")
	yr, _ := cp.OutputReg("y")

	rng := mrand.New(mrand.NewSource(24))
	ks := [width]scalar.Scalar{randScalar(rng), {2}, randScalar(rng), {1}}
	ins := make([]RunInput, width)
	for l, k := range ks {
		rec, corrected := scalar.RecodeFixedBase(k)
		ins[l] = RunInput{Rec: rec, Corrected: corrected}
	}
	errs := make([]error, width)
	if _, err := lm.RunLanes(ins, errs); err != nil {
		t.Fatal(err)
	}
	for l, k := range ks {
		if errs[l] != nil {
			t.Fatalf("lane %d: %v", l, errs[l])
		}
		want := curve.ScalarMult(k, curve.Generator()).Affine()
		if !lm.Reg(l, xr).Equal(want.X) || !lm.Reg(l, yr).Equal(want.Y) {
			t.Fatalf("lane %d: lockstep fixed-base result differs from library", l)
		}
	}
}

package core

import (
	"fmt"
	mrand "math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/fp2"
	"repro/internal/isa"
	"repro/internal/rtl"
	"repro/internal/scalar"
)

func randScalarCore(r *mrand.Rand) scalar.Scalar {
	var k scalar.Scalar
	for i := range k {
		k[i] = r.Uint64()
	}
	return k
}

// laneCase builds n random (scalar, base) pairs mixing fixed-base
// (generator) and variable-base lanes.
func laneCase(rng *mrand.Rand, n int) ([]scalar.Scalar, []curve.Affine) {
	ks := make([]scalar.Scalar, n)
	bases := make([]curve.Affine, n)
	for l := 0; l < n; l++ {
		ks[l] = randScalarCore(rng)
		if l%2 == 0 {
			bases[l] = curve.GeneratorAffine()
		} else {
			bases[l] = curve.ScalarMultBinary(randScalarCore(rng), curve.Generator()).Affine()
		}
	}
	return ks, bases
}

// TestScalarMultLanesParity: the lockstep executor path must agree,
// lane for lane, with independent single-lane ScalarMultPoint runs —
// same points, same Stats — over mixed fixed/variable-base batches and
// partial batches narrower than the widest the executor has seen.
func TestScalarMultLanesParity(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	ref := p.NewExecutor()
	rng := mrand.New(mrand.NewSource(777))
	for _, n := range []int{4, 1, 3} { // widest first: later runs are partial batches
		ks, bases := laneCase(rng, n)
		outs := make([]curve.Affine, n)
		errs := make([]error, n)
		st, err := ex.ScalarMultLanes(ks, bases, outs, errs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for l := 0; l < n; l++ {
			if errs[l] != nil {
				t.Fatalf("n=%d lane %d: %v", n, l, errs[l])
			}
			want, wantSt, err := ref.ScalarMultPoint(ks[l], bases[l])
			if err != nil {
				t.Fatal(err)
			}
			if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
				t.Fatalf("n=%d lane %d: lockstep point differs from single-lane", n, l)
			}
			if !reflect.DeepEqual(st, wantSt) {
				t.Fatalf("n=%d lane %d: stats differ", n, l)
			}
		}
	}
	if ex.Runs() != 8 {
		t.Fatalf("executor counted %d runs, want 8", ex.Runs())
	}
}

// TestScalarMultLanesValidated checks the per-lane validation contract:
// all-good batches pass every level, and the oracle level agrees with
// the functional model.
func TestScalarMultLanesValidated(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	rng := mrand.New(mrand.NewSource(778))
	ks, bases := laneCase(rng, 3)
	outs := make([]curve.Affine, 3)
	errs := make([]error, 3)
	for _, v := range []Validate{ValidateNone, ValidateOnCurve, ValidateOracle} {
		if _, err := ex.ScalarMultBatch(ProgramVariableBase, ks, bases, outs, errs, v); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		for l := range errs {
			if errs[l] != nil {
				t.Fatalf("%v lane %d: %v", v, l, errs[l])
			}
			want := curve.ScalarMult(ks[l], curve.FromAffine(bases[l])).Affine()
			if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
				t.Fatalf("%v lane %d: wrong point", v, l)
			}
		}
	}
}

// TestScalarMultLanesRejectsMisuse covers the whole-batch error paths.
func TestScalarMultLanesRejectsMisuse(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	if _, err := ex.ScalarMultLanes(nil, nil, nil, nil); err == nil {
		t.Fatal("empty batch must error")
	}
	ks := []scalar.Scalar{DefaultTraceScalar(), DefaultTraceScalar()}
	bases := []curve.Affine{curve.GeneratorAffine()}
	if _, err := ex.ScalarMultLanes(ks, bases, make([]curve.Affine, 2), make([]error, 2)); err == nil {
		t.Fatal("mismatched bases length must error")
	}
}

// TestScalarMultLanesZeroAllocs pins the steady-state guarantee at the
// executor layer: a warm lane batch allocates nothing per run.
func TestScalarMultLanesZeroAllocs(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	rng := mrand.New(mrand.NewSource(779))
	const n = 4
	ks, bases := laneCase(rng, n)
	outs := make([]curve.Affine, n)
	errs := make([]error, n)
	if _, err := ex.ScalarMultLanes(ks, bases, outs, errs); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ex.ScalarMultLanes(ks, bases, outs, errs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ScalarMultLanes allocates %.1f times per batch steady-state, want 0", allocs)
	}
}

// FuzzLaneParity cross-checks the full scalar-multiplication program in
// lockstep against the single-lane executor for random lane counts and
// scalars; seeds cover the degenerate single lane and the full width.
func FuzzLaneParity(f *testing.F) {
	const maxLanes = 4
	f.Add(uint8(0), uint64(0xabcd)) // 1 lane
	f.Add(uint8(maxLanes-1), uint64(0xef01))
	p := getProcessor(f)
	ex := p.NewExecutor()
	ref := p.NewExecutor()
	f.Fuzz(func(t *testing.T, lanes uint8, seed uint64) {
		n := int(lanes%maxLanes) + 1
		rng := mrand.New(mrand.NewSource(int64(seed)))
		ks, bases := laneCase(rng, n)
		outs := make([]curve.Affine, n)
		errs := make([]error, n)
		if _, err := ex.ScalarMultLanes(ks, bases, outs, errs); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < n; l++ {
			if errs[l] != nil {
				t.Fatalf("lane %d: %v", l, errs[l])
			}
			want, _, err := ref.ScalarMultPoint(ks[l], bases[l])
			if err != nil {
				t.Fatal(err)
			}
			if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
				t.Fatalf("lane %d: lockstep diverges from single-lane", l)
			}
		}
	})
}

// faultRun is an rtl.Injector that squashes every instruction slot of
// one run (runs are counted at their cycle-0 BeginCycle), so exactly
// that lane of an injected batch fails with a hazard.
type faultRun struct{ run, target int }

func (f *faultRun) BeginCycle(c int, _ rtl.RegFile) {
	if c == 0 {
		f.run++
	}
}
func (f *faultRun) Fetch(_ int, ins isa.Instr) (isa.Instr, bool)      { return ins, f.run != f.target }
func (f *faultRun) Forward(_ int, _ uint8, v fp2.Element) fp2.Element { return v }
func (f *faultRun) Retire(_ int, _ uint8, _ uint16, v fp2.Element) fp2.Element {
	return v
}

// tableCase is one program of the table on one processor.
type tableCase struct {
	name string
	p    *Processor
	id   ProgramID
}

// tableCases lists every program of the table on the comb-enabled
// processor, then every program the default processor leaves out
// (served by its fallback, named "<program>-fallback"), so a new row of
// the table is covered without a new test case.
func tableCases(t testing.TB) []tableCase {
	fb, vb := getFBProcessor(t), getProcessor(t)
	var cases []tableCase
	for id := ProgramID(0); id < NumPrograms; id++ {
		cases = append(cases, tableCase{id.String(), fb, id})
	}
	for id := ProgramID(0); id < NumPrograms; id++ {
		if vb.progs[id].compiled == nil {
			cases = append(cases, tableCase{id.String() + "-fallback", vb, id})
		}
	}
	return cases
}

// served is the program that serves id on p: id itself, or the
// variable-base fallback when p did not build it.
func served(p *Processor, id ProgramID) ProgramID {
	if p.progs[id].compiled == nil {
		return ProgramVariableBase
	}
	return id
}

// TestInjectedLaneStats: with an injector attached, a batch whose last
// lane faults must still report the compiled Stats of the program that
// ran, so every successful lane gets them — on every program of the
// table and on each fallback.
func TestInjectedLaneStats(t *testing.T) {
	const n = 3
	g := curve.GeneratorAffine()
	bases := []curve.Affine{g, g, g}
	for _, c := range tableCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ex := c.p.NewExecutor()
			ex.SetInjector(&faultRun{target: n})
			ks := []scalar.Scalar{{11}, {12, 13}, {14, 15, 16}}
			outs := make([]curve.Affine, n)
			errs := make([]error, n)
			st, err := ex.ScalarMultBatch(c.id, ks, bases, outs, errs, ValidateNone)
			if err != nil {
				t.Fatal(err)
			}
			if errs[n-1] == nil {
				t.Fatal("the injected last lane did not fail")
			}
			if want := c.p.progs[served(c.p, c.id)].compiled.Stats(); !reflect.DeepEqual(st, want) {
				t.Fatalf("batch stats = %+v, want the program's compiled %+v", st, want)
			}
			for l := 0; l < n-1; l++ {
				if errs[l] != nil {
					t.Fatalf("lane %d: %v", l, errs[l])
				}
				want := curve.ScalarMult(ks[l], curve.Generator()).Affine()
				if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
					t.Fatalf("lane %d: wrong point", l)
				}
			}
		})
	}
}

// TestProgramTableMatchesLibrary runs every program of the table (and
// each fallback) through ScalarMultBatch at widths 1 and 4 with random
// bases and checks each lane against the functional library.
func TestProgramTableMatchesLibrary(t *testing.T) {
	rng := mrand.New(mrand.NewSource(780))
	for _, c := range tableCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ex := c.p.NewExecutor()
			for _, n := range []int{1, 4} {
				ks, bases := laneCase(rng, n)
				outs := make([]curve.Affine, n)
				errs := make([]error, n)
				if _, err := ex.ScalarMultBatch(c.id, ks, bases, outs, errs, ValidateNone); err != nil {
					t.Fatalf("width %d: %v", n, err)
				}
				for l := range ks {
					if errs[l] != nil {
						t.Fatalf("width %d lane %d: %v", n, l, errs[l])
					}
					want := curve.ScalarMult(ks[l], curve.FromAffine(c.id.Base(bases[l]))).Affine()
					if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
						t.Fatalf("width %d lane %d: result differs from curve.ScalarMult", n, l)
					}
				}
			}
		})
	}
}

// TestProgramIDString pins the table's names and the rendering of an
// ID outside it.
func TestProgramIDString(t *testing.T) {
	for id, want := range map[ProgramID]string{
		ProgramVariableBase: "variablebase",
		ProgramFixedBase:    "fixedbase",
		ProgramEndo:         "endo",
		NumPrograms:         fmt.Sprintf("program(%d)", NumPrograms),
		255:                 "program(255)",
	} {
		if got := id.String(); got != want {
			t.Errorf("ProgramID(%d).String() = %q, want %q", uint8(id), got, want)
		}
	}
}

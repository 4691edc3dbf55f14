package rtl

import (
	mrand "math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/fp2"
	"repro/internal/isa"
	"repro/internal/scalar"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestAsmRoundTripExecutes formats a real scheduled program as assembly
// text, parses it back, and executes the parsed program: results must be
// identical. This pins down that the textual format captures everything
// the datapath needs.
func TestAsmRoundTripExecutes(t *testing.T) {
	prog, acc, table, k := dblAddSetup(t, 21, sched.MethodList)
	text := isa.FormatProgram(prog)
	parsed, err := isa.ParseProgram(text)
	if err != nil {
		t.Fatal(err)
	}
	want := runDblAdd(t, prog, acc, table, k)
	got := runDblAdd(t, parsed, acc, table, k)
	if !got.Equal(want) {
		t.Fatal("parsed program computes a different result")
	}
}

// TestConstantStructure verifies the side-channel property the
// fixed-FSM design provides: the issue schedule (cycle, unit, destination
// of every operation) is byte-for-byte identical for every scalar; only
// register-file addresses of table reads and the adder sign commands vary.
func TestConstantStructure(t *testing.T) {
	prog, acc, table, _ := dblAddSetup(t, 22, sched.MethodList)
	rng := mrand.New(mrand.NewSource(5150))
	var ref Stats
	for trial := 0; trial < 8; trial++ {
		k := randScalar(rng)
		dec := scalar.Decompose(k)
		_, st, err := Run(prog, RunInput{
			Inputs: dblAddInputs(acc, table), Rec: scalar.Recode(dec), Corrected: dec.Corrected,
		})
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			ref = st
			continue
		}
		if !reflect.DeepEqual(st, ref) {
			t.Fatalf("execution statistics vary with the scalar: %+v vs %+v", st, ref)
		}
	}
}

// TestRunRejectsUnvalidatableProgram checks that Run refuses programs
// failing static validation.
func TestRunRejectsUnvalidatableProgram(t *testing.T) {
	prog, acc, table, k := dblAddSetup(t, 23, sched.MethodList)
	bad := *prog
	bad.Instrs = append([]isa.Instr(nil), prog.Instrs...)
	bad.Instrs[0].Dst = uint16(bad.NumRegs) // out of range
	dec := scalar.Decompose(k)
	if _, _, err := Run(&bad, RunInput{Inputs: dblAddInputs(acc, table), Rec: scalar.Recode(dec), Corrected: dec.Corrected}); err == nil {
		t.Fatal("invalid program executed")
	}
}

// TestDblAddTableIndexing exercises runtime indexing across every
// digit value: scalars engineered so specific (sign, index) pairs occur.
func TestDblAddTableIndexing(t *testing.T) {
	prog, acc, table, _ := dblAddSetup(t, 24, sched.MethodList)
	// Sweep all 8 table indices at digit 0 with both signs by crafting
	// decompositions directly.
	for idx := 0; idx < 8; idx++ {
		for _, signBit := range []uint64{0, 1} {
			// a1 odd; bit1 of a1 determines sign at digit 0 (b1[0] =
			// 2*a1[1]-1), index bits come from a2..a4 parities.
			a1 := uint64(1) | signBit<<1
			var k scalar.Scalar
			k[0] = a1
			k[1] = uint64(idx) & 1
			k[2] = uint64(idx) >> 1 & 1
			k[3] = uint64(idx) >> 2 & 1
			dec := scalar.Decompose(k)
			rec := scalar.Recode(dec)
			if int(rec.Index[0]) != idx {
				t.Fatalf("engineered scalar has index %d, want %d", rec.Index[0], idx)
			}
			got := runDblAdd(t, prog, acc, table, k)
			want := expectedDblAdd(acc, table, k)
			if !got.Equal(want) {
				t.Fatalf("idx=%d sign=%d: RTL mismatch", idx, rec.Sign[0])
			}
		}
	}
}

// TestProgramGenericOverBasePoint runs the same full program with a
// different base point input.
func TestProgramGenericOverBasePoint(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rng := mrand.New(mrand.NewSource(25))
	tr, err := trace.BuildScalarMult(randScalar(rng), curve.GeneratorAffine())
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.Schedule(tr.Graph, sched.DefaultResources(), sched.Options{Method: sched.MethodList})
	if err != nil {
		t.Fatal(err)
	}
	base := curve.ScalarMultBinary(randScalar(rng), curve.Generator()).Affine()
	k := randScalar(rng)
	dec := scalar.Decompose(k)
	out, _, err := Run(r.Program, RunInput{
		Inputs:    map[string]fp2.Element{"P.x": base.X, "P.y": base.Y},
		Rec:       scalar.Recode(dec),
		Corrected: dec.Corrected,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := curve.ScalarMult(k, curve.FromAffine(base)).Affine()
	if !out["x"].Equal(want.X) || !out["y"].Equal(want.Y) {
		t.Fatal("program not generic over the base point")
	}
}

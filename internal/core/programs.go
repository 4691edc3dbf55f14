package core

import (
	"fmt"

	"repro/internal/curve"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/trace"
)

// ProgramID names one of a processor's microprograms. It indexes the
// program table below and is the request class the serving engine
// routes on (engine.Class is an alias), so the mapping from class to
// program is written once, here.
type ProgramID uint8

const (
	// ProgramVariableBase is the generic variable-base program, any base
	// point ([k]P). The zero value.
	ProgramVariableBase ProgramID = iota
	// ProgramFixedBase is the fixed-base comb program for [k]G (built
	// with Config.FixedBase). Without it, executors run the
	// variable-base program with base G instead: same result, longer
	// schedule.
	ProgramFixedBase
	// ProgramEndo is the endo-workload program: Algorithm 1 with step 1's
	// four multibase points supplied as inputs (computed by the library,
	// standing in for the endomorphism unit), matching the paper's
	// workload shape. Its makespan + EndoStepCycles is the
	// paper-comparable cycle count.
	ProgramEndo
	// NumPrograms is the number of rows in the program table.
	NumPrograms
)

// programSpec is the static description of one microprogram: everything
// the build pipeline (trace, schedule, compile, resolve) and the
// executor's per-lane binding need. Adding a program is one row of
// programs.
type programSpec struct {
	// name is the program's String(): logs, reports, metric names.
	name string
	// phase labels the build pipeline's telemetry spans
	// (trace/<phase>, schedule/<phase>, compile/<phase>) and its errors.
	phase string
	// build records the program's trace for the seed scalar k.
	build func(k scalar.Scalar) (*trace.ScalarMultTrace, error)
	// inputs names the program's external inputs, in the order bind
	// fills RunInput.Bound. A program without inputs has its base point
	// baked in: it computes [k]G whatever base it is handed.
	inputs []string
	// bind recodes k into in and sets the values of in.Bound, whose
	// registers are already resolved in inputs order, for base.
	bind func(k scalar.Scalar, base curve.Affine, in *rtl.RunInput)
	// enabled reports whether cfg asks for the program; nil means it is
	// always built. Executors serve a program left out with the
	// variable-base program, so an optional program must compute what
	// that one computes for the same scalar and base.
	enabled func(cfg Config) bool
}

var programs = [NumPrograms]programSpec{
	ProgramVariableBase: {
		name:  "variablebase",
		phase: "functional",
		build: func(k scalar.Scalar) (*trace.ScalarMultTrace, error) {
			return trace.BuildScalarMult(k, curve.GeneratorAffine())
		},
		inputs: []string{"P.x", "P.y"},
		bind: func(k scalar.Scalar, base curve.Affine, in *rtl.RunInput) {
			recode(k, in)
			in.Bound[0].Val, in.Bound[1].Val = base.X, base.Y
		},
	},
	ProgramFixedBase: {
		name:  "fixedbase",
		phase: "fixedbase",
		build: func(k scalar.Scalar) (*trace.ScalarMultTrace, error) {
			return trace.BuildFixedBaseScalarMult(k, curve.GeneratorAffine())
		},
		bind: func(k scalar.Scalar, _ curve.Affine, in *rtl.RunInput) {
			in.Rec, in.Corrected = scalar.RecodeFixedBase(k)
		},
		enabled: func(cfg Config) bool { return cfg.FixedBase },
	},
	ProgramEndo: {
		name:  "endo",
		phase: "endo",
		build: func(k scalar.Scalar) (*trace.ScalarMultTrace, error) {
			return trace.BuildScalarMultWithBases(k, multiBase(curve.GeneratorAffine()))
		},
		inputs: []string{"P0.x", "P0.y", "P1.x", "P1.y", "P2.x", "P2.y", "P3.x", "P3.y"},
		bind: func(k scalar.Scalar, base curve.Affine, in *rtl.RunInput) {
			recode(k, in)
			for j, b := range multiBase(base) {
				in.Bound[2*j].Val, in.Bound[2*j+1].Val = b.X, b.Y
			}
		},
	},
}

// recode loads the variable-base recoding of k into in.
func recode(k scalar.Scalar, in *rtl.RunInput) {
	dec := scalar.Decompose(k)
	in.Rec, in.Corrected = scalar.Recode(dec), dec.Corrected
}

// multiBase computes Algorithm 1's step 1 for base: the four points
// the endo-workload program takes as inputs.
func multiBase(base curve.Affine) [4]curve.Affine {
	mb := curve.NewMultiBase(curve.FromAffine(base))
	var out [4]curve.Affine
	for j := range out {
		out[j] = mb.P[j].Affine()
	}
	return out
}

// String names the program as used in logs, reports and metric names.
func (id ProgramID) String() string {
	if id < NumPrograms {
		return programs[id].name
	}
	return fmt.Sprintf("program(%d)", uint8(id))
}

// Base is the point program id multiplies when handed base: G for a
// program with its base baked in (the comb), base otherwise.
func (id ProgramID) Base(base curve.Affine) curve.Affine {
	if id < NumPrograms && programs[id].inputs == nil {
		return curve.GeneratorAffine()
	}
	return base
}

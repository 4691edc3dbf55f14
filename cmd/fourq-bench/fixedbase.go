package main

import (
	"errors"
	"fmt"

	"repro/internal/benchreport"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/sched"
	"repro/internal/trace"
)

// fixedbase is the fixed-base comb experiment: it traces [k]G with the
// precomputed window table as ROM operands, schedules the trace with
// the list scheduler and the deterministic portfolio (same pinned seed
// the processor builds use), compiles both through the RTL hazard
// prover, proves determinism by re-solving, and validates the compiled
// program differentially against curve.FixedBaseTable. The headline is
// the makespan next to the variable-base program signing would
// otherwise ride.
func (b *bench) fixedbase() error {
	tr, err := trace.BuildFixedBaseScalarMult(core.DefaultTraceScalar(), curve.GeneratorAffine())
	if err != nil {
		return err
	}
	fmt.Printf("fixed-base comb trace: %d GF(p^2) operations, %d ROM windows\n",
		len(tr.Graph.Ops), len(tr.Graph.ROM))
	h, cp, err := solveHeadToHead(tr)
	if err != nil {
		return err
	}

	// Differential validation of the portfolio-compiled comb against the
	// library's precomputed-table path, covering the correction (even,
	// zero) and reduction (>= N) edges.
	lm := cp.NewLaneMachine(1)
	errs := []error{nil}
	xr, okX := cp.OutputReg("x")
	yr, okY := cp.OutputReg("y")
	if !okX || !okY {
		return fmt.Errorf("comb program misses its x/y outputs")
	}
	vScalars := []scalar.Scalar{
		traceScalar, core.DefaultTraceScalar(),
		{}, {42}, scalar.FromBig(scalar.Order()),
		{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
	}
	for i, k := range vScalars {
		rec, corrected := scalar.RecodeFixedBase(k)
		if _, err := lm.RunLanes([]rtl.RunInput{{Rec: rec, Corrected: corrected}}, errs); err != nil || errs[0] != nil {
			return fmt.Errorf("validation scalar %d: %v", i, errors.Join(err, errs[0]))
		}
		want := curve.ScalarBaseMult(k).Affine()
		if !lm.Reg(0, xr).Equal(want.X) || !lm.Reg(0, yr).Equal(want.Y) {
			return fmt.Errorf("validation scalar %d: compiled comb differs from curve.FixedBaseTable", i)
		}
	}
	fmt.Printf("differential: %d/%d scalars bit-exact vs the library's precomputed table\n",
		len(vScalars), len(vScalars))

	// The routing baseline: the list-scheduled full variable-base SM a
	// sign commitment rides without the comb (the same schedule a
	// default processor build compiles).
	vtr, err := trace.BuildScalarMult(core.DefaultTraceScalar(), curve.GeneratorAffine())
	if err != nil {
		return err
	}
	vr, err := sched.Schedule(vtr.Graph, sched.DefaultResources(), sched.Options{Method: sched.MethodList})
	if err != nil {
		return err
	}
	ratio := float64(h.Portfolio.Makespan) / float64(vr.Makespan)

	st := cp.Stats()
	printHeadToHead(h)
	fmt.Printf("comb vs variable-base: %d vs %d cycles (%.2fx) with %d ROM reads over %d windows\n",
		h.Portfolio.Makespan, vr.Makespan, ratio, st.ROMReads, len(tr.Graph.ROM))

	b.rep.Add("fixedbase", benchreport.FixedBase{
		HeadToHead:           h,
		ROMWindows:           len(tr.Graph.ROM),
		ROMReads:             st.ROMReads,
		VariableBaseMakespan: vr.Makespan,
		Ratio:                ratio,
		Validated:            len(vScalars),
	})
	return nil
}

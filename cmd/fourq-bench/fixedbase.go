package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/jobshop"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/sched"
	"repro/internal/trace"
)

// fixedBaseResult is the -exp fixedbase entry of the JSON report: the
// fixed-base comb program's schedule next to the variable-base program
// signing traffic would otherwise ride, with the differential evidence
// and the determinism cross-check benchcheck gates on.
type fixedBaseResult struct {
	TraceOps   int `json:"trace_ops"`
	ROMWindows int `json:"rom_windows"`
	ROMReads   int `json:"rom_reads"`
	LowerBound int `json:"lower_bound"`

	Single    schedSolverRow `json:"single"`
	Portfolio schedSolverRow `json:"portfolio"`

	// VariableBaseMakespan is the list-scheduled full variable-base SM —
	// the schedule a sign commitment rides when no comb program exists.
	VariableBaseMakespan int `json:"variable_base_makespan"`
	// Ratio is Portfolio.Makespan / VariableBaseMakespan (lower is
	// better; the routing pays off iff this stays well below 1).
	Ratio float64 `json:"ratio"`

	Improvements  int    `json:"improvements"`
	Rounds        int    `json:"rounds"`
	Seed          int64  `json:"seed"`
	ScheduleHash  string `json:"schedule_hash"`
	Deterministic bool   `json:"deterministic"`
	// Validated counts the scalars whose compiled-comb output matched
	// the library's precomputed-table oracle bit for bit.
	Validated int `json:"validated"`
}

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
	res := sched.DefaultResources()
	nOps := len(tr.Graph.Ops)
	fmt.Printf("fixed-base comb trace: %d GF(p^2) operations, %d ROM windows\n",
		nOps, len(tr.Graph.ROM))

	solve := func(opts sched.Options) (schedSolverRow, *sched.Result, *rtl.CompiledProgram, error) {
		t0 := time.Now()
		r, err := sched.Schedule(tr.Graph, res, opts)
		if err != nil {
			return schedSolverRow{}, nil, nil, err
		}
		dt := time.Since(t0)
		cp, err := rtl.Compile(r.Program)
		if err != nil {
			return schedSolverRow{}, nil, nil, fmt.Errorf("%s comb program failed hazard compilation: %w", r.Solver, err)
		}
		st := cp.Stats()
		return schedSolverRow{
			Solver:         r.Solver,
			Makespan:       r.Makespan,
			MulUtilization: st.MulUtilization,
			AddUtilization: st.AddUtilization,
			StallCycles:    st.StallCycles,
			SolveSeconds:   dt.Seconds(),
		}, r, cp, nil
	}

	single, singleR, _, err := solve(sched.Options{Method: sched.MethodList})
	if err != nil {
		return err
	}
	fmt.Printf("single (list): %d cycles in %.2fs (lower bound %d)\n",
		single.Makespan, single.SolveSeconds, singleR.LowerBound)

	popts := sched.Options{
		Method:    sched.MethodPortfolio,
		Seed:      benchSchedSeed,
		Portfolio: benchPortfolioKnobs(),
		Progress: func(p jobshop.Progress) {
			if p.Kind == jobshop.ProgressIncumbent && p.Iteration > 0 {
				fmt.Printf("  portfolio round %d: incumbent %d cycles\n", p.Iteration, p.Makespan)
			}
		},
	}
	portfolio, portfolioR, cp, err := solve(popts)
	if err != nil {
		return err
	}
	fmt.Printf("portfolio: %d cycles in %.2fs (%d improvements over %d rounds, hash %016x)\n",
		portfolio.Makespan, portfolio.SolveSeconds, portfolioR.Improvements,
		popts.Portfolio.Rounds, portfolioR.ScheduleHash)

	// Determinism cross-check: a second solve with identical options
	// must land on the identical schedule.
	popts.Progress = nil
	rerun, rerunR, _, err := solve(popts)
	if err != nil {
		return err
	}
	deterministic := rerunR.ScheduleHash == portfolioR.ScheduleHash && rerun.Makespan == portfolio.Makespan
	if !deterministic {
		return fmt.Errorf("portfolio not deterministic: %016x/%d vs %016x/%d",
			portfolioR.ScheduleHash, portfolio.Makespan, rerunR.ScheduleHash, rerun.Makespan)
	}
	fmt.Println("determinism: second run reproduced the schedule bit for bit")

	// Differential validation of the portfolio-compiled comb against the
	// library's precomputed-table path, covering the correction (even,
	// zero) and reduction (>= N) edges.
	tbl := curve.NewFixedBaseTable(curve.Generator())
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
		want := tbl.ScalarMult(k).Affine()
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
	vr, err := sched.Schedule(vtr.Graph, res, sched.Options{Method: sched.MethodList})
	if err != nil {
		return err
	}
	ratio := float64(portfolio.Makespan) / float64(vr.Makespan)

	st := cp.Stats()
	fmt.Printf("\n%-12s %-10s %-10s %-10s %-8s %s\n", "solver", "makespan", "mul-util", "add-util", "stalls", "solve[s]")
	for _, row := range []schedSolverRow{single, portfolio} {
		fmt.Printf("%-12s %-10d %-10.1f %-10.1f %-8d %.2f\n",
			row.Solver, row.Makespan, 100*row.MulUtilization, 100*row.AddUtilization,
			row.StallCycles, row.SolveSeconds)
	}
	fmt.Printf("comb vs variable-base: %d vs %d cycles (%.2fx) with %d ROM reads over %d windows\n",
		portfolio.Makespan, vr.Makespan, ratio, st.ROMReads, len(tr.Graph.ROM))

	b.rep.add("fixedbase", fixedBaseResult{
		TraceOps:             nOps,
		ROMWindows:           len(tr.Graph.ROM),
		ROMReads:             st.ROMReads,
		LowerBound:           portfolioR.LowerBound,
		Single:               single,
		Portfolio:            portfolio,
		VariableBaseMakespan: vr.Makespan,
		Ratio:                ratio,
		Improvements:         portfolioR.Improvements,
		Rounds:               popts.Portfolio.Rounds,
		Seed:                 benchSchedSeed,
		ScheduleHash:         fmt.Sprintf("%016x", portfolioR.ScheduleHash),
		Deterministic:        deterministic,
		Validated:            len(vScalars),
	})
	return nil
}

package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/benchreport"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/jobshop"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/sched"
	"repro/internal/trace"
)

// sched is the scheduler experiment over core's program table. For
// every row the processor built it sets the single-pass list scheduler
// against the pinned-seed portfolio (the seed and budget of -sched
// portfolio), compiles both through the RTL hazard prover, and reports
// makespan, utilization, stalls, the lower bound and the ROM. A second,
// independent portfolio solve must reproduce the schedule hash, and the
// processor's compiled row must match curve.ScalarMult on edge scalars.
// The processor's own solve is one of the two: under -sched portfolio
// it is the first portfolio solve, so each row is solved twice.
func (b *bench) sched() error {
	p, err := b.processor()
	if err != nil {
		return err
	}
	var s benchreport.Sched
	for id := range core.NumPrograms {
		if res, _ := p.Row(id); res == nil {
			continue
		}
		row, err := b.schedRow(p, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		s.Programs = append(s.Programs, row)
	}
	b.rep.Add("sched", s)
	return nil
}

// differentialScalars are the edge scalars every compiled row must get
// right: zero, a small scalar, the group order N, 2^256-1 (the
// reduction edges) and the two trace scalars.
var differentialScalars = []scalar.Scalar{
	{}, {42}, scalar.FromBig(scalar.Order()),
	{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
	traceScalar, core.DefaultTraceScalar(),
}

// schedRow runs the sched experiment on program id.
func (b *bench) schedRow(p *core.Processor, id core.ProgramID) (benchreport.SchedRow, error) {
	tr, err := p.Trace(id)
	if err != nil {
		return benchreport.SchedRow{}, err
	}
	popts := portfolioOptions()
	popts.Progress = func(pr jobshop.Progress) {
		if pr.Kind == jobshop.ProgressIncumbent && pr.Iteration > 0 {
			fmt.Printf("  portfolio round %d: incumbent %d cycles\n", pr.Iteration, pr.Makespan)
		}
	}
	row := benchreport.SchedRow{
		Program:    id.String(),
		TraceOps:   len(tr.Graph.Ops),
		Seed:       popts.Seed,
		Rounds:     popts.Portfolio.Rounds,
		ROMWindows: len(tr.Graph.ROM),
	}
	fmt.Printf("\n%s: %d GF(p^2) operations, %d ROM windows\n", id, row.TraceOps, row.ROMWindows)

	list, listCP, listSecs, err := solve(tr, sched.Options{Method: sched.MethodList})
	if err != nil {
		return row, err
	}
	port, portCP := p.Row(id)
	if b.schedName != "portfolio" {
		// The processor holds the list schedule: solve the portfolio.
		if port, portCP, _, err = solve(tr, popts); err != nil {
			return row, err
		}
		popts.Progress = nil
	}
	// Determinism cross-check: an independent solve with identical
	// options must land on the identical schedule. Its time is the
	// portfolio's solve time.
	rerun, _, portSecs, err := solve(tr, popts)
	if err != nil {
		return row, err
	}
	if rerun.ScheduleHash != port.ScheduleHash || rerun.Makespan != port.Makespan {
		return row, fmt.Errorf("portfolio not deterministic: %016x/%d vs %016x/%d",
			port.ScheduleHash, port.Makespan, rerun.ScheduleHash, rerun.Makespan)
	}
	row.Deterministic = true
	row.Single = solverRow(list, listCP, listSecs)
	row.Portfolio = solverRow(port, portCP, portSecs)
	row.LowerBound = port.LowerBound
	row.Improvements = port.Improvements
	row.ScheduleHash = fmt.Sprintf("%016x", port.ScheduleHash)
	row.ROMReads = portCP.Stats().ROMReads

	// Differential run of the processor's compiled row, base G.
	n := len(differentialScalars)
	outs, errs := make([]curve.Affine, n), make([]error, n)
	if _, err := p.NewExecutor().ScalarMultBatch(id, differentialScalars, nil, outs, errs, core.ValidateOracle); err != nil {
		return row, err
	}
	if err := errors.Join(errs...); err != nil {
		return row, fmt.Errorf("differential: %w", err)
	}
	row.Validated = n

	fmt.Printf("\n%-12s %-10s %-10s %-10s %-8s %s\n", "solver", "makespan", "mul-util", "add-util", "stalls", "solve[s]")
	for _, r := range []benchreport.SolverRow{row.Single, row.Portfolio} {
		fmt.Printf("%-12s %-10d %-10.1f %-10.1f %-8d %.2f\n",
			r.Solver, r.Makespan, 100*r.MulUtilization, 100*r.AddUtilization, r.StallCycles, r.SolveSeconds)
	}
	fmt.Printf("lower bound %d, hash %s (%d improvements over %d rounds), %d ROM reads\n",
		row.LowerBound, row.ScheduleHash, row.Improvements, row.Rounds, row.ROMReads)
	fmt.Println("determinism: second run reproduced the schedule bit for bit")
	fmt.Printf("differential: %d/%d scalars bit-exact vs curve.ScalarMult\n", n, n)
	return row, nil
}

// solve schedules tr with opts and compiles the program through the
// RTL hazard prover, returning the solve's wall time.
func solve(tr *trace.ScalarMultTrace, opts sched.Options) (*sched.Result, *rtl.CompiledProgram, float64, error) {
	t0 := time.Now()
	r, err := sched.Schedule(tr.Graph, sched.DefaultResources(), opts)
	if err != nil {
		return nil, nil, 0, err
	}
	secs := time.Since(t0).Seconds()
	cp, err := rtl.Compile(r.Program)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s program failed hazard compilation: %w", r.Solver, err)
	}
	return r, cp, secs, nil
}

// solverRow reports one solver's schedule with its compiled statistics.
func solverRow(r *sched.Result, cp *rtl.CompiledProgram, secs float64) benchreport.SolverRow {
	st := cp.Stats()
	return benchreport.SolverRow{
		Solver:         r.Solver,
		Makespan:       r.Makespan,
		MulUtilization: st.MulUtilization,
		AddUtilization: st.AddUtilization,
		StallCycles:    st.StallCycles,
		SolveSeconds:   secs,
	}
}

package main

import (
	"fmt"
	"time"

	"repro/internal/benchreport"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/jobshop"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/trace"
)

// solveHeadToHead solves tr with the single-pass list scheduler and
// with the pinned-seed portfolio, compiles each through the RTL hazard
// prover, and proves the portfolio deterministic by a second solve,
// printing the per-solver progress lines. It returns the report entry
// and the compiled portfolio program.
func solveHeadToHead(tr *trace.ScalarMultTrace) (benchreport.HeadToHead, *rtl.CompiledProgram, error) {
	res := sched.DefaultResources()
	solve := func(opts sched.Options) (benchreport.SolverRow, *sched.Result, *rtl.CompiledProgram, error) {
		t0 := time.Now()
		r, err := sched.Schedule(tr.Graph, res, opts)
		if err != nil {
			return benchreport.SolverRow{}, nil, nil, err
		}
		dt := time.Since(t0)
		cp, err := rtl.Compile(r.Program)
		if err != nil {
			return benchreport.SolverRow{}, nil, nil, fmt.Errorf("%s program failed hazard compilation: %w", r.Solver, err)
		}
		st := cp.Stats()
		return benchreport.SolverRow{
			Solver:         r.Solver,
			Makespan:       r.Makespan,
			MulUtilization: st.MulUtilization,
			AddUtilization: st.AddUtilization,
			StallCycles:    st.StallCycles,
			SolveSeconds:   dt.Seconds(),
		}, r, cp, nil
	}

	h := benchreport.HeadToHead{TraceOps: len(tr.Graph.Ops), Seed: benchSchedSeed}
	var singleR *sched.Result
	var err error
	if h.Single, singleR, _, err = solve(sched.Options{Method: sched.MethodList}); err != nil {
		return h, nil, err
	}
	fmt.Printf("single (list): %d cycles in %.2fs (lower bound %d)\n",
		h.Single.Makespan, h.Single.SolveSeconds, singleR.LowerBound)

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
	h.Rounds = popts.Portfolio.Rounds
	portfolioR := (*sched.Result)(nil)
	var cp *rtl.CompiledProgram
	if h.Portfolio, portfolioR, cp, err = solve(popts); err != nil {
		return h, nil, err
	}
	h.LowerBound = portfolioR.LowerBound
	h.Improvements = portfolioR.Improvements
	h.ScheduleHash = fmt.Sprintf("%016x", portfolioR.ScheduleHash)
	fmt.Printf("portfolio: %d cycles in %.2fs (%d improvements over %d rounds, hash %s)\n",
		h.Portfolio.Makespan, h.Portfolio.SolveSeconds, h.Improvements, h.Rounds, h.ScheduleHash)

	// Determinism cross-check: a second solve with identical options
	// must land on the identical schedule.
	popts.Progress = nil
	rerun, rerunR, _, err := solve(popts)
	if err != nil {
		return h, nil, err
	}
	if rerunR.ScheduleHash != portfolioR.ScheduleHash || rerun.Makespan != h.Portfolio.Makespan {
		return h, nil, fmt.Errorf("portfolio not deterministic: %s/%d vs %016x/%d",
			h.ScheduleHash, h.Portfolio.Makespan, rerunR.ScheduleHash, rerun.Makespan)
	}
	h.Deterministic = true
	fmt.Println("determinism: second run reproduced the schedule bit for bit")
	return h, cp, nil
}

// printHeadToHead prints the two solvers side by side.
func printHeadToHead(h benchreport.HeadToHead) {
	fmt.Printf("\n%-12s %-10s %-10s %-10s %-8s %s\n", "solver", "makespan", "mul-util", "add-util", "stalls", "solve[s]")
	for _, row := range []benchreport.SolverRow{h.Single, h.Portfolio} {
		fmt.Printf("%-12s %-10d %-10.1f %-10.1f %-8d %.2f\n",
			row.Solver, row.Makespan, 100*row.MulUtilization, 100*row.AddUtilization,
			row.StallCycles, row.SolveSeconds)
	}
}

// sched is the scheduler head-to-head experiment: it solves the full
// functional scalar-multiplication trace with the single-pass list
// scheduler and with the portfolio (same pinned seed and budget the
// -sched portfolio processor build uses), compiles both programs
// through the RTL hazard prover, and reports makespan, functional-unit
// utilization and stall cycles for each. The portfolio is solved twice
// to demonstrate determinism: same seed + same round budget must
// reproduce the same schedule hash.
func (b *bench) sched() error {
	tr, err := trace.BuildScalarMult(core.DefaultTraceScalar(), curve.GeneratorAffine())
	if err != nil {
		return err
	}
	fmt.Printf("full functional trace: %d GF(p^2) operations\n", len(tr.Graph.Ops))
	h, _, err := solveHeadToHead(tr)
	if err != nil {
		return err
	}
	impr := 100 * float64(h.Single.Makespan-h.Portfolio.Makespan) / float64(h.Single.Makespan)
	printHeadToHead(h)
	fmt.Printf("portfolio shortens the critical path by %.1f%% (%d -> %d cycles; lower bound %d)\n",
		impr, h.Single.Makespan, h.Portfolio.Makespan, h.LowerBound)
	b.rep.Add("sched", benchreport.Sched{HeadToHead: h, ImprovementPct: impr})
	return nil
}

package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/jobshop"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/trace"
)

// schedSolverRow is one solver's measurement in the -exp sched report.
type schedSolverRow struct {
	Solver         string  `json:"solver"`
	Makespan       int     `json:"makespan"`
	MulUtilization float64 `json:"mul_utilization"`
	AddUtilization float64 `json:"add_utilization"`
	StallCycles    int     `json:"stall_cycles"`
	SolveSeconds   float64 `json:"solve_seconds"`
}

// schedResult is the -exp sched entry of the JSON report: the head-to-
// head of the single-pass list scheduler against the portfolio on the
// full functional trace, with the RTL-compiled utilization evidence and
// the determinism cross-check benchcheck gates on.
type schedResult struct {
	TraceOps       int            `json:"trace_ops"`
	LowerBound     int            `json:"lower_bound"`
	Single         schedSolverRow `json:"single"`
	Portfolio      schedSolverRow `json:"portfolio"`
	ImprovementPct float64        `json:"improvement_pct"`
	Improvements   int            `json:"improvements"`
	Rounds         int            `json:"rounds"`
	Seed           int64          `json:"seed"`
	ScheduleHash   string         `json:"schedule_hash"`
	// Deterministic records that a second portfolio run with identical
	// options reproduced the same ScheduleHash.
	Deterministic bool `json:"deterministic"`
}

// headToHead is one trace solved by the single-pass list scheduler and
// by the pinned-seed portfolio, each compiled through the RTL hazard
// prover, with the portfolio proven deterministic by a second solve.
type headToHead struct {
	single, portfolio   schedSolverRow
	singleR, portfolioR *sched.Result
	// cp is the compiled portfolio program.
	cp     *rtl.CompiledProgram
	rounds int
}

// solveHeadToHead runs the head-to-head on tr, printing the per-solver
// progress lines; it fails if the portfolio does not reproduce itself.
func solveHeadToHead(tr *trace.ScalarMultTrace) (*headToHead, error) {
	res := sched.DefaultResources()
	solve := func(opts sched.Options) (schedSolverRow, *sched.Result, *rtl.CompiledProgram, error) {
		t0 := time.Now()
		r, err := sched.Schedule(tr.Graph, res, opts)
		if err != nil {
			return schedSolverRow{}, nil, nil, err
		}
		dt := time.Since(t0)
		cp, err := rtl.Compile(r.Program)
		if err != nil {
			return schedSolverRow{}, nil, nil, fmt.Errorf("%s program failed hazard compilation: %w", r.Solver, err)
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

	h := &headToHead{}
	var err error
	if h.single, h.singleR, _, err = solve(sched.Options{Method: sched.MethodList}); err != nil {
		return nil, err
	}
	fmt.Printf("single (list): %d cycles in %.2fs (lower bound %d)\n",
		h.single.Makespan, h.single.SolveSeconds, h.singleR.LowerBound)

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
	h.rounds = popts.Portfolio.Rounds
	if h.portfolio, h.portfolioR, h.cp, err = solve(popts); err != nil {
		return nil, err
	}
	fmt.Printf("portfolio: %d cycles in %.2fs (%d improvements over %d rounds, hash %016x)\n",
		h.portfolio.Makespan, h.portfolio.SolveSeconds, h.portfolioR.Improvements,
		h.rounds, h.portfolioR.ScheduleHash)

	// Determinism cross-check: a second solve with identical options
	// must land on the identical schedule.
	popts.Progress = nil
	rerun, rerunR, _, err := solve(popts)
	if err != nil {
		return nil, err
	}
	if rerunR.ScheduleHash != h.portfolioR.ScheduleHash || rerun.Makespan != h.portfolio.Makespan {
		return nil, fmt.Errorf("portfolio not deterministic: %016x/%d vs %016x/%d",
			h.portfolioR.ScheduleHash, h.portfolio.Makespan, rerunR.ScheduleHash, rerun.Makespan)
	}
	fmt.Println("determinism: second run reproduced the schedule bit for bit")
	return h, nil
}

// printTable prints the two solvers side by side.
func (h *headToHead) printTable() {
	fmt.Printf("\n%-12s %-10s %-10s %-10s %-8s %s\n", "solver", "makespan", "mul-util", "add-util", "stalls", "solve[s]")
	for _, row := range []schedSolverRow{h.single, h.portfolio} {
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
	nOps := len(tr.Graph.Ops)
	fmt.Printf("full functional trace: %d GF(p^2) operations\n", nOps)
	h, err := solveHeadToHead(tr)
	if err != nil {
		return err
	}
	single, portfolio := h.single, h.portfolio
	impr := 100 * float64(single.Makespan-portfolio.Makespan) / float64(single.Makespan)
	h.printTable()
	fmt.Printf("portfolio shortens the critical path by %.1f%% (%d -> %d cycles; lower bound %d)\n",
		impr, single.Makespan, portfolio.Makespan, h.portfolioR.LowerBound)

	b.rep.add("sched", schedResult{
		TraceOps:       nOps,
		LowerBound:     h.portfolioR.LowerBound,
		Single:         single,
		Portfolio:      portfolio,
		ImprovementPct: impr,
		Improvements:   h.portfolioR.Improvements,
		Rounds:         h.rounds,
		Seed:           benchSchedSeed,
		ScheduleHash:   fmt.Sprintf("%016x", h.portfolioR.ScheduleHash),
		Deterministic:  true,
	})
	return nil
}

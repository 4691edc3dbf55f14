// Command schedsmoke is the CI gate on the portfolio scheduling layer:
// a short-budget, pinned-seed portfolio solve of the real functional
// scalar-multiplication trace that must (a) reproduce itself bit for
// bit when run twice (the determinism contract the committed baseline
// depends on), (b) compile through the RTL hazard prover with the
// cycle count the solver claimed, and (c) beat the committed
// baseline's single-solver makespan — a portfolio that cannot improve
// on its own warm start inside two rounds is broken, whatever the
// full-budget numbers say.
//
// The full-budget head-to-head (and the committed portfolio makespan)
// lives in `fourq-bench -exp sched`; this program exists so `make ci`
// exercises the portfolio end to end in a few seconds instead of ~30.
//
//	go run ./scripts/schedsmoke -baseline BENCH_rtl.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchreport"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/trace"
)

func main() {
	baseline := flag.String("baseline", "BENCH_rtl.json", "committed bench baseline carrying the sched experiment")
	rounds := flag.Int("rounds", 2, "portfolio round budget (short on purpose)")
	iters := flag.Int("iters", 150, "tabu iterations per worker per round")
	seed := flag.Int64("seed", sched.DefaultPortfolioSeed, "portfolio root seed")
	flag.Parse()

	if err := run(*baseline, *rounds, *iters, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "schedsmoke:", err)
		os.Exit(1)
	}
	fmt.Println("schedsmoke: ok")
}

func run(baselinePath string, rounds, iters int, seed int64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	base, err := benchreport.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	bs, ok := base.Experiments["sched"].(*benchreport.Sched)
	if !ok {
		return fmt.Errorf("%s carries no sched experiment (refresh it with `make bench-record`)", baselinePath)
	}

	tr, err := trace.BuildScalarMult(core.DefaultTraceScalar(), curve.GeneratorAffine())
	if err != nil {
		return err
	}
	knobs := sched.DefaultPortfolioKnobs()
	knobs.Rounds = rounds
	knobs.TabuIters = iters
	knobs.TabuWorkers = 2
	opts := sched.Options{
		Method:    sched.MethodPortfolio,
		Seed:      seed,
		Portfolio: knobs,
	}

	solve := func() (*sched.Result, error) {
		r, err := sched.Schedule(tr.Graph, sched.DefaultResources(), opts)
		if err != nil {
			return nil, err
		}
		cp, err := rtl.Compile(r.Program)
		if err != nil {
			return nil, fmt.Errorf("portfolio program failed hazard compilation: %w", err)
		}
		if got := cp.Stats().Cycles; got != r.Makespan {
			return nil, fmt.Errorf("RTL executes in %d cycles but the solver claimed %d", got, r.Makespan)
		}
		return r, nil
	}

	first, err := solve()
	if err != nil {
		return err
	}
	fmt.Printf("schedsmoke: seed %d, %d rounds x %d iters: %d cycles (hash %016x, lower bound %d)\n",
		seed, rounds, iters, first.Makespan, first.ScheduleHash, first.LowerBound)

	second, err := solve()
	if err != nil {
		return err
	}
	if second.ScheduleHash != first.ScheduleHash || second.Makespan != first.Makespan {
		return fmt.Errorf("not deterministic: run 1 %016x/%d, run 2 %016x/%d",
			first.ScheduleHash, first.Makespan, second.ScheduleHash, second.Makespan)
	}
	fmt.Println("schedsmoke: second run reproduced the schedule bit for bit")

	if first.Makespan > bs.Single.Makespan {
		return fmt.Errorf("short-budget portfolio makespan %d exceeds the baseline single-solver %d — the portfolio lost to its warm start",
			first.Makespan, bs.Single.Makespan)
	}
	fmt.Printf("schedsmoke: %d cycles beats the baseline single-solver %d (committed full-budget portfolio: %d, hash %s)\n",
		first.Makespan, bs.Single.Makespan, bs.Portfolio.Makespan, bs.ScheduleHash)
	return nil
}

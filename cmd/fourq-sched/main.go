// Command fourq-sched runs the automated instruction-scheduling flow of
// Section III-C on its own: record the GF(p^2) operation trace of the
// scalar-multiplication algorithm, convert it to a job-shop instance,
// solve with the selected method, and emit flow statistics plus an
// optional Table I-style schedule listing.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/isa"
	"repro/internal/jobshop"
	"repro/internal/scalar"
	"repro/internal/sched"
	"repro/internal/trace"
)

func main() {
	block := flag.Bool("block", false, "schedule only the double-and-add block (Table I workload)")
	method := flag.String("method", "list", "scheduler: list|bnb|anneal|blocked|tabu|portfolio")
	listing := flag.Bool("listing", false, "print the per-cycle schedule listing")
	mulLat := flag.Int("mul-latency", 3, "multiplier pipeline depth")
	addLat := flag.Int("add-latency", 1, "adder latency")
	blockSize := flag.Int("block-size", 32, "block size for -method blocked")
	seed := flag.Int64("seed", 0, "root seed for the randomized solvers (tabu, portfolio)")
	rounds := flag.Int("rounds", 0, "portfolio round budget (0 = default); determinism holds per (seed, rounds)")
	timeBudget := flag.Duration("time-budget", 0, "portfolio wall-clock cap (breaks run-to-run determinism)")
	dumpAsm := flag.String("dump-asm", "", "write the scheduled microprogram as assembly text to this file")
	dumpDot := flag.String("dump-dot", "", "write the trace dataflow graph in Graphviz DOT format to this file")
	flag.Parse()

	if err := run(runConfig{
		block: *block, method: *method, listing: *listing,
		mulLat: *mulLat, addLat: *addLat, blockSize: *blockSize,
		seed: *seed, rounds: *rounds, timeBudget: *timeBudget,
		dumpAsm: *dumpAsm, dumpDot: *dumpDot,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "fourq-sched:", err)
		os.Exit(1)
	}
}

func parseMethod(s string) (sched.Method, error) {
	switch s {
	case "list":
		return sched.MethodList, nil
	case "bnb":
		return sched.MethodBnB, nil
	case "anneal":
		return sched.MethodAnneal, nil
	case "blocked":
		return sched.MethodBlocked, nil
	case "tabu":
		return sched.MethodTabu, nil
	case "portfolio":
		return sched.MethodPortfolio, nil
	}
	return 0, fmt.Errorf("unknown method %q", s)
}

type runConfig struct {
	block      bool
	method     string
	listing    bool
	mulLat     int
	addLat     int
	blockSize  int
	seed       int64
	rounds     int
	timeBudget time.Duration
	dumpAsm    string
	dumpDot    string
}

func run(rc runConfig) error {
	method, err := parseMethod(rc.method)
	if err != nil {
		return err
	}
	res := sched.DefaultResources()
	res.MulLatency = rc.mulLat
	res.AddLatency = rc.addLat

	k := scalar.Scalar{0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F1E2D3C4B5A6978}
	var tr *trace.ScalarMultTrace
	fmt.Println("step 1-2: recording the execution trace of the SM algorithm...")
	if rc.block {
		g := curve.Generator()
		table := curve.BuildTable(curve.NewMultiBase(g))
		tr, err = trace.BuildDblAdd(k, g, table)
	} else {
		tr, err = trace.BuildScalarMult(k, curve.GeneratorAffine())
	}
	if err != nil {
		return err
	}
	st := tr.Graph.Stats()
	fmt.Printf("  recorded %d micro-operations (%d mult, %d add/sub; %.1f%% multiplications)\n",
		st.Total, st.Muls, st.Adds, 100*st.MulShare)

	fmt.Printf("step 3: job-shop scheduling (method=%s, Lm=%d, La=%d)...\n", rc.method, rc.mulLat, rc.addLat)
	lb, err := core.LowerBoundOfInstance(tr.Graph, res)
	if err != nil {
		return err
	}
	opts := sched.Options{
		Method:    method,
		BlockSize: rc.blockSize,
		BnBBudget: 10_000_000,
		Seed:      rc.seed,
		Portfolio: sched.PortfolioKnobs{Rounds: rc.rounds, TimeBudget: rc.timeBudget},
	}
	if method == sched.MethodPortfolio {
		// Live incumbent trajectory: a full-trace portfolio run takes
		// seconds to minutes, so narrate the search.
		opts.Progress = func(p jobshop.Progress) {
			switch p.Kind {
			case jobshop.ProgressIncumbent:
				fmt.Printf("  round %d: incumbent %d cycles\n", p.Iteration, p.Makespan)
			case jobshop.ProgressDone:
				fmt.Printf("  portfolio done after %d rounds\n", p.Iteration)
			}
		}
	}
	r, err := sched.Schedule(tr.Graph, res, opts)
	if err != nil {
		return err
	}
	fmt.Printf("  makespan: %d cycles (lower bound %d, optimal proven: %v)\n", r.Makespan, lb, r.Optimal)
	fmt.Printf("  solver: %s, schedule hash %016x\n", r.Solver, r.ScheduleHash)
	fmt.Printf("  multiplier utilization: %.1f%% of cycles issue a multiplication\n",
		100*float64(st.Muls)/float64(r.Makespan))

	fmt.Println("step 4: control-signal generation...")
	fmt.Printf("  %s\n", core.ProgramSummary(r.Program))
	rom, err := r.Program.ROMImage()
	if err != nil {
		return err
	}
	fmt.Printf("  program ROM: %d words x 64 bit = %.1f kbit; peak live values %d\n",
		len(rom), float64(len(rom)*64)/1000, r.MaxLive)

	if rc.dumpDot != "" {
		if err := os.WriteFile(rc.dumpDot, []byte(tr.Graph.DOT("fourq_sm")), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote dataflow graph to %s\n", rc.dumpDot)
	}

	if rc.dumpAsm != "" {
		if err := os.WriteFile(rc.dumpAsm, []byte(isa.FormatProgram(r.Program)), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote assembly listing to %s\n", rc.dumpAsm)
	}

	if rc.listing {
		fmt.Println()
		fmt.Println(core.FormatScheduleTable(tr.Graph, r))
	}
	return nil
}

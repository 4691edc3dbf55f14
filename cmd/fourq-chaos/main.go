// Command fourq-chaos runs the deterministic failure campaigns of
// internal/chaos against a real in-process serve.Server and reports
// whether every service invariant held:
//
//	fourq-chaos                             # full catalog, default seed
//	fourq-chaos -seed 42 -requests 120      # bigger, replayable campaign
//	fourq-chaos -scenarios faulty-shard,saturation
//	fourq-chaos -json BENCH_chaos.json      # fourq-bench/v1 report
//
// The campaign is replayable: the same -seed reproduces the same
// workload, fault placement, and traffic mix. The process exits
// non-zero when any scenario breached an invariant (lost or duplicated
// answers, oracle disagreement, engine backpressure before shed,
// unbounded recovery), so CI can gate on it directly; `make
// chaos-record` commits the report as BENCH_chaos.json and `make ci`
// validates it with scripts/benchcheck (chaos.Report.Check).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/benchreport"
	"repro/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "campaign seed (same seed replays the same campaign)")
	requests := flag.Int("requests", 60, "requests per measured phase")
	scenariosFlag := flag.String("scenarios", "", "comma-separated scenario filter (default all): "+
		strings.Join(chaos.ScenarioNames(), ","))
	jsonPath := flag.String("json", "", "write the fourq-bench/v1 report to this file")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	opts := chaos.Options{Seed: *seed, Requests: *requests}
	if *scenariosFlag != "" {
		for _, name := range strings.Split(*scenariosFlag, ",") {
			if name = strings.TrimSpace(name); name != "" {
				opts.Scenarios = append(opts.Scenarios, name)
			}
		}
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep, err := chaos.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fourq-chaos: %v\n", err)
		os.Exit(2)
	}

	printSummary(rep)

	if *jsonPath != "" {
		doc := benchreport.New()
		doc.Add("chaos", rep)
		if err := doc.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "fourq-chaos: write %s: %v\n", *jsonPath, err)
			os.Exit(2)
		}
		fmt.Printf("report written to %s\n", *jsonPath)
	}

	if len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "fourq-chaos: %d invariant violation(s)\n", len(rep.Violations))
		os.Exit(1)
	}
}

func printSummary(rep *chaos.Report) {
	fmt.Printf("chaos campaign: seed=%d requests/phase=%d scenarios=%d\n",
		rep.Seed, rep.Requests, len(rep.Scenarios))
	for _, sc := range rep.Scenarios {
		line := fmt.Sprintf("  %-22s faults=%-6d ok=%-5d shed=%-4d ejected=%d rebuilt=%d hedge_wins=%d",
			sc.Name, sc.FaultsInjected, sc.Requests["ok"], sc.Requests["shed"],
			sc.ShardsEjected, sc.ShardsRebuilt, sc.HedgeWins)
		if sc.RecoveryRatio != nil {
			line += fmt.Sprintf(" recovery=%.0f%%", 100**sc.RecoveryRatio)
		}
		fmt.Println(line)
		for _, v := range sc.Violations {
			fmt.Printf("    VIOLATION: %s\n", v)
		}
	}
	verdict := "all invariants held"
	if len(rep.Violations) > 0 {
		verdict = fmt.Sprintf("%d VIOLATIONS", len(rep.Violations))
	}
	fmt.Printf("  total: faults=%d lost=%d dup=%d mis=%d engine_rejected=%d — %s\n",
		rep.FaultsInjected, rep.Lost, rep.Duplicates, rep.MisAnswered,
		rep.EngineRejected, verdict)
}

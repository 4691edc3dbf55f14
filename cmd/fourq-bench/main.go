// Command fourq-bench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index):
//
//	fourq-bench -exp profile   # E1: op-mix profile (the "57%" claim)
//	fourq-bench -exp table1    # E2: scheduled double-and-add block
//	fourq-bench -exp latency   # E3: cycles / latency @1.2V
//	fourq-bench -exp fig4      # E4: VDD sweep (Fmax, latency, energy)
//	fourq-bench -exp table2    # E5: comparison to prior art
//	fourq-bench -exp fig3      # E6: area breakdown
//	fourq-bench -exp ablation  # E7: scheduler ablation
//	fourq-bench -exp sched     # every program row: list vs portfolio schedule
//	fourq-bench -exp throughput# E8: batch-engine SM/s vs worker count
//	fourq-bench -exp faults    # E9: fault-injection detection coverage
//	fourq-bench -exp all       # everything
//
// -exp accepts a comma-separated list (e.g. -exp latency,throughput) so
// a single JSON report can carry exactly the experiments a consumer
// needs; `make bench-record` uses this to write the committed
// performance baseline BENCH_rtl.json.
//
// A failing experiment in a multi-experiment run no longer aborts the
// rest: remaining experiments execute, the JSON report records the
// failure under "errors", and the process exits non-zero.
//
// Observability flags (see docs/OBSERVABILITY.md):
//
//	-json <path>        write every executed experiment's tables as
//	                    structured JSON (schema "fourq-bench/v1") in
//	                    addition to the text output
//	-trace <path>       execute one scalar multiplication on the RTL
//	                    model and write its cycle-level timeline as
//	                    Chrome trace_event JSON (open in Perfetto or
//	                    chrome://tracing)
//	-debug-addr <addr>  serve the unified debug surface on addr (e.g.
//	                    "localhost:6060"): net/http/pprof, expvar,
//	                    /metrics (Prometheus) and /debug/telemetry
//	                    for profiling long sweeps
//
// The processor (the full trace -> schedule -> emit build) is
// constructed lazily: cheap experiments that do not need it (table1,
// ablation, pareto) run without paying for the build.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/benchreport"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/jobshop"
	"repro/internal/scalar"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: profile|table1|latency|throughput|batch|sched|fig4|table2|fig3|ablation|pareto|faults|all")
	full := flag.Bool("full", false, "include full-trace scheduler ablation (slow)")
	lanes := flag.String("lanes", "1,2,4,8", "ascending lockstep lane widths swept by -exp batch")
	schedSolver := flag.String("sched", "single", "schedule solver for the benchmarked processor: single (fast list scheduler) or portfolio (parallel tabu + LNS search; slower build, shorter schedule)")
	jsonPath := flag.String("json", "", "write executed experiments' results as structured JSON to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace_event timeline of one scalar multiplication to this file")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar, /metrics and /debug on this address (e.g. localhost:6060)")
	flag.Parse()

	if *debugAddr != "" {
		// The experiments create their own per-engine registries (their
		// tests assert exact counter values), so the served registry is
		// the process-level one; pprof and expvar are the main draw when
		// profiling a long sweep.
		telemetry.ServeDebug(*debugAddr, telemetry.NewRegistry(), telemetry.NewFlightRecorder(0))
	}

	if err := run(*exp, *full, *lanes, *schedSolver, *jsonPath, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "fourq-bench:", err)
		os.Exit(1)
	}
}

// portfolioOptions pin the bench's portfolio solves to the shared
// production defaults (internal/sched), so the committed BENCH_rtl.json
// baseline, the -sched portfolio processor builds, and fourq-serve
// -sched portfolio all race the exact same deterministic configuration.
func portfolioOptions() sched.Options {
	return sched.Options{
		Method:    sched.MethodPortfolio,
		Seed:      sched.DefaultPortfolioSeed,
		Portfolio: sched.DefaultPortfolioKnobs(),
	}
}

// bench carries the shared state of one invocation: the lazily built
// processor and the accumulating JSON report.
type bench struct {
	full      bool
	lanes     []int  // lockstep widths swept by -exp batch
	schedName string // -sched: "single" or "portfolio"
	proc      *core.Processor
	rep       *benchreport.Report
}

// config is the processor configuration of this invocation, with every
// row of the program table — every experiment that builds or caches a
// processor must go through it so the -sched selection applies
// uniformly.
func (b *bench) config() core.Config {
	cfg := core.Config{FixedBase: true}
	if b.schedName == "portfolio" {
		cfg.Sched = portfolioOptions()
	}
	return cfg
}

// processor builds the full trace->schedule->emit pipeline on first use
// so cheap experiments never pay for it.
func (b *bench) processor() (*core.Processor, error) {
	if b.proc != nil {
		return b.proc, nil
	}
	fmt.Printf("building processor (trace -> schedule -> program, solver=%s)...\n", b.schedName)
	p, err := core.New(b.config())
	if err != nil {
		return nil, err
	}
	for id := range core.NumPrograms {
		if r, _ := p.Row(id); r != nil {
			fmt.Printf("  %s program: %s\n", id, core.ProgramSummary(r.Program))
		}
	}
	fmt.Println()
	b.proc = p
	return p, nil
}

// traceScalar is the fixed scalar traced by -trace (any scalar produces
// the same schedule; a fixed one keeps the timeline reproducible).
var traceScalar = scalar.Scalar{0x9E3779B97F4A7C15, 0xD1B54A32D192ED03, 0x2545F4914F6CDD1D, 0x27220A95FE9D3E8F}

// step is one runnable experiment.
type step struct {
	name string
	f    func() error
}

func run(exp string, full bool, lanes, schedSolver, jsonPath, tracePath string) error {
	widths, err := parseLanes(lanes)
	if err != nil {
		return fmt.Errorf("-lanes: %w", err)
	}
	if schedSolver != "single" && schedSolver != "portfolio" {
		return fmt.Errorf("-sched: unknown solver %q (valid: single, portfolio)", schedSolver)
	}
	b := &bench{full: full, lanes: widths, schedName: schedSolver, rep: benchreport.New()}
	steps := []step{
		{"profile", b.profile},
		{"table1", b.table1},
		{"latency", b.latency},
		{"throughput", b.throughput},
		{"batch", b.batch},
		{"sched", b.sched},
		{"fig4", b.fig4},
		{"table2", b.table2},
		{"fig3", b.fig3},
		{"ablation", b.ablation},
		{"pareto", b.pareto},
		{"faults", b.faults},
	}
	return execute(b, steps, exp, jsonPath, tracePath)
}

// execute runs the selected experiments (exp is a comma-separated list;
// "all" selects everything). A failing experiment no longer aborts the
// run: the remaining experiments still execute and the JSON report is
// still written (carrying the failure under "errors", so a partial
// document is distinguishable from a clean one), but the accumulated
// error is returned so the process exits non-zero.
func execute(b *bench, steps []step, exp, jsonPath, tracePath string) error {
	known := func(name string) bool {
		for _, s := range steps {
			if s.name == name {
				return true
			}
		}
		return false
	}
	all := false
	selected := make(map[string]bool)
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "all":
			all = true
		case known(name):
			selected[name] = true
		default:
			names := make([]string, len(steps))
			for i, s := range steps {
				names[i] = s.name
			}
			return fmt.Errorf("unknown experiment %q (valid: %s, all)", name, strings.Join(names, ", "))
		}
	}
	if !all && len(selected) == 0 {
		return fmt.Errorf("no experiment selected")
	}
	var errs []error
	for _, s := range steps {
		if !all && !selected[s.name] {
			continue
		}
		fmt.Printf("==== %s ====\n", s.name)
		if err := s.f(); err != nil {
			err = fmt.Errorf("%s: %w", s.name, err)
			fmt.Fprintln(os.Stderr, "fourq-bench:", err)
			b.rep.Fail(s.name, err)
			errs = append(errs, err)
			continue
		}
		fmt.Println()
	}

	if tracePath != "" {
		if err := writeRunTrace(b, tracePath); err != nil {
			errs = append(errs, fmt.Errorf("trace: %w", err))
		}
	}

	if jsonPath != "" {
		if err := b.rep.WriteFile(jsonPath); err != nil {
			errs = append(errs, fmt.Errorf("json: %w", err))
		} else {
			fmt.Printf("wrote structured results to %s\n", jsonPath)
		}
	}
	return errors.Join(errs...)
}

// writeRunTrace executes one scalar multiplication under the telemetry
// observer and writes its cycle-level timeline.
func writeRunTrace(b *bench, tracePath string) error {
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	p, err := b.processor()
	if err != nil {
		f.Close()
		return err
	}
	st, err := p.TraceScalarMult(traceScalar, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote Chrome trace_event timeline (%d cycles, %d slices) to %s\n",
		st.Cycles, st.MulIssues+st.AddIssues, tracePath)
	return nil
}

func (b *bench) pareto() error {
	pts, err := core.ParetoSweep()
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %-8s %-10s %-10s %-10s %s\n", "design point", "cycles", "area[kGE]", "lat[us]", "LAP", "RTL verified")
	for _, p := range pts {
		fmt.Printf("%-28s %-8d %-10.0f %-10.1f %-10.1f %v\n",
			p.Name, p.Cycles, p.AreaKGE, p.LatencyUS, p.LatencyAreaProduct, p.Verified)
	}
	fmt.Println("\nfinding: with a per-cycle control ROM, narrower multipliers lose on both axes;")
	fmt.Println("the paper's full-throughput 3-core Karatsuba datapath is Pareto-optimal.")
	b.rep.Add("pareto", map[string]any{"points": pts})
	return nil
}

func (b *bench) profile() error {
	p, err := b.processor()
	if err != nil {
		return err
	}
	st := p.TraceStats()
	fmt.Printf("full SM trace: %d GF(p^2) operations\n", st.Total)
	fmt.Printf("  multiplications: %d (%.1f%%)   [paper: ~57%%]\n", st.Muls, 100*st.MulShare)
	fmt.Printf("  add/subs:        %d (%.1f%%)\n", st.Adds, 100*(1-st.MulShare))
	rst, err := b.runStats()
	if err != nil {
		return err
	}
	fmt.Printf("scheduled issue occupancy over %d cycles: multiplier %.1f%%, adder %.1f%%\n",
		rst.Cycles, 100*rst.MulUtilization, 100*rst.AddUtilization)
	b.rep.Add("profile", benchreport.Profile{TraceOps: st, RTLStats: rst})
	return nil
}

func (b *bench) table1() error {
	fmt.Println("scheduling the double-and-add block with the exact solver...")
	var progressLines int
	r, err := core.TableIObserved(sched.DefaultResources(), func(p jobshop.Progress) {
		switch p.Kind {
		case jobshop.ProgressIncumbent:
			fmt.Printf("  bnb: incumbent makespan %d (bound %d, %d nodes)\n", p.Makespan, p.Bound, p.Nodes)
		case jobshop.ProgressBound:
			fmt.Printf("  bnb: lower bound raised to %d (%d nodes)\n", p.Bound, p.Nodes)
		case jobshop.ProgressNodes:
			fmt.Printf("  bnb: %d nodes explored...\n", p.Nodes)
		case jobshop.ProgressDone:
			fmt.Printf("  bnb: done, makespan %d, optimal %v (%d nodes)\n", p.Makespan, p.Optimal, p.Nodes)
		}
		progressLines++
	})
	if err != nil {
		return err
	}
	fmt.Printf("block: %d Fp2 mults + %d Fp2 add/subs [paper: 15 + 13]\n", r.Muls, r.Adds)
	fmt.Printf("makespan: %d cycles (optimal proven: %v, lower bound %d) [paper's Table I: 25]\n\n",
		r.Makespan, r.Optimal, r.LowerBound)
	fmt.Println(r.Listing)
	b.rep.Add("table1", map[string]any{
		"muls":            r.Muls,
		"adds":            r.Adds,
		"makespan":        r.Makespan,
		"optimal":         r.Optimal,
		"lower_bound":     r.LowerBound,
		"progress_events": progressLines,
	})
	return nil
}

// runStats executes one scalar multiplication bit-true on the RTL model
// and returns its statistics (shared by the profile and latency
// experiments; the run is milliseconds, the build dominates).
func (b *bench) runStats() (benchreport.RTLStats, error) {
	p, err := b.processor()
	if err != nil {
		return benchreport.RTLStats{}, err
	}
	_, st, err := p.ScalarMult(traceScalar)
	return benchreport.RTLStats(st), err
}

func (b *bench) latency() error {
	p, err := b.processor()
	if err != nil {
		return err
	}
	m, err := p.PowerModel()
	if err != nil {
		return err
	}
	fmt.Printf("cycles/SM: functional (with substitution doublings) %d, paper-comparable %d\n",
		p.CyclesFunctional(), p.CyclesEndoModeled())
	fmt.Printf("derived clock @1.20V: %.1f MHz\n", m.Fmax(1.2)/1e6)
	fmt.Printf("latency @1.20V: %.2f us  [paper: 10.1 us]\n", m.Latency(1.2)*1e6)
	fmt.Printf("latency @0.32V: %.0f us  [paper: 857 us]\n", m.Latency(0.32)*1e6)
	rst, err := b.runStats()
	if err != nil {
		return err
	}
	fmt.Printf("issue occupancy: multiplier %.1f%%, adder %.1f%% (%d stall cycles)\n",
		100*rst.MulUtilization, 100*rst.AddUtilization, rst.StallCycles)
	fmt.Printf("register file: %d reads (%d forwarded), %d writes (%d elided)\n",
		rst.RegReads, rst.ForwardedReads, rst.RegWrites, rst.ElidedWrites)
	if err := p.Verify(2, 7); err != nil {
		return err
	}
	fmt.Println("RTL-vs-library verification: 2/2 scalar multiplications bit-exact on every program")

	// Host-side single-thread SM/s, compiled execution plan vs the
	// reference interpreter: the measured win of the ahead-of-time
	// compile. bench-compare gates it in pairs against the parent
	// commit's build.
	ex := p.NewExecutor()
	compiledRate, err := measureRate(func() error {
		_, _, err := ex.ScalarMultPoint(traceScalar, curve.GeneratorAffine())
		return err
	})
	if err != nil {
		return err
	}
	interpretedRate, err := measureRate(func() error {
		_, _, err := p.ScalarMultInterpreted(traceScalar)
		return err
	})
	if err != nil {
		return err
	}
	speedup := compiledRate / interpretedRate
	fmt.Printf("host single-thread SM/s: compiled plan %.0f, interpreter %.0f (%.2fx)\n",
		compiledRate, interpretedRate, speedup)
	b.rep.Add("latency", benchreport.Latency{
		CyclesFunctional:  p.CyclesFunctional(),
		CyclesEndoModeled: p.CyclesEndoModeled(),
		FmaxMHz1V20:       m.Fmax(1.2) / 1e6,
		LatencyUS1V20:     m.Latency(1.2) * 1e6,
		LatencyUS0V32:     m.Latency(0.32) * 1e6,
		RTLStats:          rst,
		SingleThread: benchreport.SingleThread{
			CompiledSMPerSec:    compiledRate,
			InterpretedSMPerSec: interpretedRate,
			Speedup:             speedup,
		},
	})
	return nil
}

// measureRate times fn in a loop (one warm-up call first) until at
// least 250ms and 8 iterations have elapsed, returning iterations per
// second.
func measureRate(fn func() error) (float64, error) {
	if err := fn(); err != nil { // warm-up
		return 0, err
	}
	const (
		minRuns = 8
		minDur  = 250 * time.Millisecond
	)
	start := time.Now()
	runs := 0
	for {
		if err := fn(); err != nil {
			return 0, err
		}
		runs++
		if d := time.Since(start); runs >= minRuns && d >= minDur {
			return float64(runs) / d.Seconds(), nil
		}
	}
}

func (b *bench) fig4() error {
	p, err := b.processor()
	if err != nil {
		return err
	}
	r, err := p.Figure4(12)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-12s %-14s %-12s %s\n", "VDD [V]", "Fmax [MHz]", "Latency [us]", "Energy [uJ]", "SM/s")
	for _, pt := range r.Points {
		fmt.Printf("%-8.2f %-12.2f %-14.1f %-12.3f %.0f\n",
			pt.V, pt.FmaxHz/1e6, pt.LatencyS*1e6, pt.EnergyJ*1e6, pt.Throughput)
	}
	fmt.Printf("model minimum energy: %.3f uJ at %.2f V [paper: 0.327 uJ at 0.32 V]\n",
		r.MinEnergyJ*1e6, r.MinEnergyV)
	b.rep.Add("fig4", r)
	return nil
}

func (b *bench) table2() error {
	p, err := b.processor()
	if err != nil {
		return err
	}
	r, err := p.TableII()
	if err != nil {
		return err
	}
	hdr := fmt.Sprintf("%-22s %-16s %-11s %-5s %-24s %-6s %-12s %-12s %-10s %s",
		"Design", "Platform", "Curve", "Core", "Area", "VDD", "Latency[ms]", "Ops/s", "E/op[uJ]", "LatxArea")
	fmt.Println(hdr)
	printRow := func(c core.CompRow) {
		v := "-"
		if c.VDD > 0 {
			v = fmt.Sprintf("%.2f", c.VDD)
		}
		lat := "-"
		if c.LatencyMS > 0 {
			lat = fmt.Sprintf("%.4f", c.LatencyMS)
		}
		e := "-"
		if c.EnergyUJ > 0 {
			e = fmt.Sprintf("%.3f", c.EnergyUJ)
		}
		lap := "-"
		if c.LatencyAreaProduct > 0 {
			lap = fmt.Sprintf("%.1f", c.LatencyAreaProduct)
		}
		fmt.Printf("%-22s %-16s %-11s %-5d %-24s %-6s %-12s %-12.3g %-10s %s\n",
			c.Design, c.Platform, c.Curve, c.Cores, c.Area, v, lat, c.OpsPerSec, e, lap)
	}
	printRow(r.OursLowV)
	printRow(r.OursHighV)
	if mc, err := p.MultiCore(11, 1.20); err == nil {
		printRow(mc)
	}
	for _, c := range r.Prior {
		printRow(c)
	}
	fmt.Println()
	fmt.Printf("headline ratios: %.2fx vs P-256 ASIC [paper 3.66x], %.1fx vs FourQ FPGA [paper 15.5x], %.2fx energy vs ECDSA ASIC [paper 5.14x]\n",
		r.SpeedupVsP256ASIC, r.SpeedupVsFourQFPGA, r.EnergyGainVsECDSA)
	fmt.Printf("same-silicon cross-check: FourQ %d cycles vs P-256 model %d (%.2fx) vs Curve25519 model %d (%.2fx)\n",
		r.FourQCycles, r.P256ModelCycles, r.ModelSpeedupP256, r.C25519ModelCycles, r.ModelSpeedupC25519)
	b.rep.Add("table2", r)
	return nil
}

func (b *bench) fig3() error {
	p, err := b.processor()
	if err != nil {
		return err
	}
	br := p.Figure3()
	fmt.Println("area breakdown (calibrated to the published 1400 kGE):")
	fmt.Println(br)
	fmt.Printf("\n  [paper: 1400 kGE, %.2f mm x %.2f mm]\n", 1.76, 3.56)
	b.rep.Add("fig3", br)
	return nil
}

func (b *bench) ablation() error {
	rows, err := core.SchedulerAblation(sched.DefaultResources(), b.full)
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-10s %-12s %s\n", "trace/method", "makespan", "lower bound", "optimal")
	for _, r := range rows {
		fmt.Printf("%-18s %-10d %-12d %v\n", r.Method, r.Makespan, r.LowerBound, r.Optimal)
	}
	withF, withoutF, err := core.ForwardingAblation(sched.DefaultResources())
	if err != nil {
		return err
	}
	fmt.Printf("\npipeline-depth sensitivity (DBLADD block): %d cycles at default latency, %d with +1 stage\n", withF, withoutF)
	el, err := core.ElisionAblation(sched.DefaultResources())
	if err != nil {
		return err
	}
	fmt.Printf("write-back elision (full SM): %d of %d register-file writes removed (%.0f%%)\n",
		el.ElidedWrites, el.TotalOps, 100*el.SavedShare)
	b.rep.Add("ablation", map[string]any{
		"methods":                   rows,
		"forwarding_makespan":       withF,
		"forwarding_plus1_makespan": withoutF,
		"elision":                   el,
	})
	return nil
}

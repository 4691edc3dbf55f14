// Command perfbench is the repository's benchmark. It runs one named
// workload against the FourQ stack through its exported APIs and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from a separate run that
// records spans around every call into a layer and writes them to
// .bench_build/perfbench/. Every answer is checked against the software
// oracle; a wrong answer makes the run exit 1. See README.md.
//
//	go run . -workload sign -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// endToEndMetrics and perLayerMetrics are every metric a run prints
// with -trace 0 and -trace 1, with its unit; BENCHMARK.json declares
// the same sets.
var (
	endToEndMetrics = map[string]string{
		"setup_s": "s", "capacity_rps": "1/s", "goodput_sm_per_s": "SM/s", "p50_ms": "ms", "peak_rss_mb": "MB",
	}
	perLayerMetrics = map[string]string{
		"fp2.mul_rows_ns": "ns", "fp2.mul_alg2_ns": "ns",
		"rtl.ns_per_cycle.vb": "ns", "rtl.ns_per_cycle.fb": "ns", "rtl.compile_s": "s",
		"rtl.cycles_per_sm": "cycles", "rtl.mul_utilization": "ratio", "rtl.stall_cycles": "cycles",
		"core.lanes_us_per_sm.vb": "us", "core.lanes_us_per_sm.fb": "us", "core.single_us_per_sm": "us",
		"engine.submit_us": "us", "engine.queue_wait_us": "us", "engine.lane_fill": "ratio",
		"engine.flush_hit_frac": "ratio", "engine.class_breaks": "count", "engine.fallback_frac": "ratio",
		"schnorrq.keygen_us": "us", "schnorrq.sign_self_us": "us", "schnorrq.verify_self_us": "us",
		"serve.handler_self_us": "us", "serve.loopback_us": "us", "serve.shed_frac": "ratio",
		"trace.build_s": "s", "sched.solve_s": "s", "sched.makespan_cycles": "cycles", "sched.bound_gap": "ratio",
		"loadgen.lag_p99_ms": "ms", "bench.tracing_overhead_frac": "ratio",
	}
)

// checkMetrics reports a metric missing from m, emitted with another
// unit, or not declared in want.
func checkMetrics(m metrics, want map[string]string) error {
	for name, unit := range want {
		if got, ok := m[name]; !ok || got.Unit != unit {
			return fmt.Errorf("metric %s: got %+v, want unit %s", name, got, unit)
		}
	}
	for name := range m {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is what a workload run hands back: the final-line fields, a
// human-readable report printed before it, and the programs that
// served with the portfolio round budget that built them (0 for the
// list scheduler), for the provenance block.
type outcome struct {
	attempted, failed, wrong int
	metrics                  metrics
	report                   map[string]any
	programs                 map[string]programInfo
	rounds                   int
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

type runFunc func(seed int64, seconds float64, traced bool) (outcome, error)

var workloads = map[string]runFunc{
	"sign":   func(seed int64, s float64, tr bool) (outcome, error) { return runServe(signSpec, seed, s, tr) },
	"verify": func(seed int64, s float64, tr bool) (outcome, error) { return runServe(verifySpec, seed, s, tr) },
	"flow":   runFlow,
}

func main() {
	name := flag.String("workload", "", "workload to run: sign, verify or flow")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 20, "measurement time of the run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	child := flag.String("setup-child", "", "internal: run one cold set-up (serve or flow) for the parent's setup_s")
	flag.Parse()
	if *child != "" {
		if err := setupChild(*child); err != nil {
			logf("set-up child: %v", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("usage: -workload sign|verify|flow -seed n -seconds s -trace 0|1")
		os.Exit(2)
	}
	out, err := run(*seed, *seconds, *trace == 1)
	if err != nil {
		logf("%s: %v", *name, err)
		os.Exit(1)
	}
	prov := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"programs": out.programs,
	}
	if out.rounds > 0 {
		prov["portfolio_rounds"] = out.rounds
	}
	out.report["provenance"] = prov
	out.report["fail_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	want := endToEndMetrics
	if *trace == 1 {
		want = perLayerMetrics
	}
	if err := checkMetrics(out.metrics, want); err != nil {
		logf("%s: %v", *name, err)
		os.Exit(1)
	}
	if rep, err := json.MarshalIndent(out.report, "", "  "); err != nil {
		logf("%s: encode report: %v", *name, err)
	} else {
		fmt.Println(string(rep))
	}
	line, err := json.Marshal(result{Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics})
	if err != nil {
		logf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if out.wrong > 0 {
		logf("%d wrong answers", out.wrong)
		os.Exit(1)
	}
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

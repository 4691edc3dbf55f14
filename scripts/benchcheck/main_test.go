package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchreport"
)

const goodReport = `{
  "schema": "fourq-bench/v1",
  "experiments": {
    "latency": {
      "cycles_functional": 3940,
      "cycles_endo_modeled": 1981,
      "fmax_mhz_1v20": 196.1,
      "latency_us_1v20": 10.1,
      "latency_us_0v32": 857,
      "rtl_stats": ` + goodRTLStats + `,
      "single_thread": {"compiled_sm_per_sec": 2200, "interpreted_sm_per_sec": 400, "speedup": 5.5}
    }
  }
}`

// goodRTLStats is a complete rtl_stats block of the default program.
const goodRTLStats = `{
        "cycles": 3940,
        "mul_issues": 2589,
        "add_issues": 2074,
        "reg_reads": 4312,
        "reg_writes": 4663,
        "rom_reads": 0,
        "mul_utilization": 0.657,
        "add_utilization": 0.526,
        "stall_cycles": 291,
        "read_port_pressure": [1349, 1110, 734, 522, 42],
        "write_port_pressure": [299, 2253, 1205],
        "issues_by_opcode": {"add": 1009, "mul": 2589, "sub": 998},
        "forwarded_reads": 3393,
        "elided_writes": 0
      }`

func TestCheckGood(t *testing.T) {
	if _, err := check([]byte(goodReport)); err != nil {
		t.Fatal(err)
	}
}

const goodThroughput = `{
  "schema": "fourq-bench/v1",
  "experiments": {
    "throughput": {
      "num_cpu": 4,
      "sms_per_point": 24,
      "points": [
        {"workers": 1, "sms": 24, "seconds": 0.0585, "sm_per_sec": 410.2, "speedup": 1, "oracle_ok": true},
        {"workers": 4, "sms": 24, "seconds": 0.0553, "sm_per_sec": 433.8, "speedup": 1.06, "oracle_ok": true}
      ],
      "max_speedup": 1.06,
      "build_shared": true,
      "queue_depth": 48,
      "engine_cache_size": 1,
      "verified_all": true,
      "schedule_cycles": 3756,
      "solver": "portfolio"
    }
  }
}`

func TestCheckThroughputGood(t *testing.T) {
	if _, err := check([]byte(goodThroughput)); err != nil {
		t.Fatal(err)
	}
}

const goodBatch = `{
  "schema": "fourq-bench/v1",
  "experiments": {
    "batch": {
      "num_cpu": 4,
      "lane_widths": [
        {"width": 1, "sm_per_sec": 2900.0, "speedup": 1, "oracle_ok": true},
        {"width": 2, "sm_per_sec": 4800.0, "speedup": 1.66, "oracle_ok": true},
        {"width": 4, "sm_per_sec": 7000.0, "speedup": 2.41, "oracle_ok": true}
      ],
      "peak_lane_sm_per_sec": 7000.0,
      "engine": {"lane_width": 4, "workers": 1, "sms": 32, "sm_per_sec": 3800.0, "lane_runs": 8, "lane_lanes": 32, "oracle_ok": true},
      "verified_all": true
    }
  }
}`

func TestCheckBatchGood(t *testing.T) {
	if _, err := check([]byte(goodBatch)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckBatchNonMonotoneNote: a sweep that dips at a wider width is
// rejected bare but accepted once the report explains the dip.
func TestCheckBatchNonMonotoneNote(t *testing.T) {
	dip := strings.Replace(strings.Replace(goodBatch,
		`"sm_per_sec": 7000.0, "speedup": 2.41`, `"sm_per_sec": 4500.0, "speedup": 1.55`, 1),
		`"peak_lane_sm_per_sec": 7000.0`, `"peak_lane_sm_per_sec": 4800.0`, 1)
	if _, err := check([]byte(dip)); err == nil {
		t.Fatal("non-monotone sweep without a note accepted")
	} else if !strings.Contains(err.Error(), "no note") {
		t.Fatalf("error %q does not mention the missing note", err)
	}
	noted := strings.Replace(dip, `"verified_all": true`,
		`"note": "host scheduling noise at width 4", "verified_all": true`, 1)
	if _, err := check([]byte(noted)); err != nil {
		t.Fatalf("noted non-monotone sweep rejected: %v", err)
	}
}

const goodFaults = `{
  "schema": "fourq-bench/v1",
  "experiments": {
    "faults": {
      "campaign": {"seed": 999447, "trials": 8, "sites": ["regfile", "rom"], "validation": "oncurve"},
      "detected": 3,
      "silent": 1,
      "masked": 4,
      "detection_coverage": 0.75,
      "by_site": {
        "regfile": {"trials": 5, "detected": 2, "silent": 1, "masked": 2},
        "rom": {"trials": 3, "detected": 1, "silent": 0, "masked": 2}
      },
      "trial_log": []
    }
  }
}`

func TestCheckFaultsGood(t *testing.T) {
	if _, err := check([]byte(goodFaults)); err != nil {
		t.Fatal(err)
	}
}

const goodServe = `{
  "schema": "fourq-bench/v1",
  "experiments": {
    "serve": {
      "target": "http://127.0.0.1:7414",
      "offered_rps": 300,
      "duration_seconds": 5,
      "mix": "scalarmult=4,sign=2,verify=3,batch=1",
      "batch_size": 4,
      "requests": {"total": 1500, "ok": 1350, "shed": 140, "rate_limited": 10, "failed": 0},
      "shed_rate": 0.0933,
      "latency_ms": {"p50": 2.6, "p95": 6.2, "p99": 8.8},
      "goodput_rps": 270.0,
      "goodput_sm_per_sec": 560.5
    }
  }
}`

func TestCheckServeGood(t *testing.T) {
	if _, err := check([]byte(goodServe)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckServeRejects: the serve experiment's non-negotiables — a
// report without the latency percentiles or the shed-rate metadata
// (or with tallies that do not reconcile) must fail validation.
func TestCheckServeRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"missing percentile", strings.Replace(goodServe,
			`"p95": 6.2, `, ``, 1), "latency_ms.p95"},
		{"missing latency block", strings.Replace(goodServe,
			`"latency_ms": {"p50": 2.6, "p95": 6.2, "p99": 8.8},`, ``, 1), "latency_ms missing"},
		{"missing shed rate", strings.Replace(goodServe,
			`"shed_rate": 0.0933,`, ``, 1), "shed_rate"},
		{"shed rate out of range", strings.Replace(goodServe,
			`"shed_rate": 0.0933`, `"shed_rate": 1.5`, 1), "shed_rate"},
		{"unordered percentiles", strings.Replace(goodServe,
			`"p99": 8.8`, `"p99": 1.0`, 1), "below a lower percentile"},
		{"tallies do not reconcile", strings.Replace(goodServe,
			`"shed": 140`, `"shed": 100`, 1), "tallies"},
		{"nothing succeeded", strings.Replace(strings.Replace(goodServe,
			`"ok": 1350`, `"ok": 0`, 1),
			`"shed": 140`, `"shed": 1490`, 1), "no successful request"},
		{"zero goodput", strings.Replace(goodServe,
			`"goodput_sm_per_sec": 560.5`, `"goodput_sm_per_sec": 0`, 1), "goodput_sm_per_sec"},
		{"zero offered", strings.Replace(goodServe,
			`"offered_rps": 300`, `"offered_rps": 0`, 1), "offered_rps"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := check([]byte(c.doc))
			if err == nil {
				t.Fatalf("check accepted %s", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// report decodes and checks doc.
func report(t *testing.T, doc string) *benchreport.Report {
	t.Helper()
	r, err := check([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// withRate returns doc with the single-thread compiled rate set to v.
func withRate(doc string, v float64) string {
	return strings.Replace(doc, `"compiled_sm_per_sec": 2200`, fmt.Sprintf(`"compiled_sm_per_sec": %v`, v), 1)
}

// pairs returns one parent report per ratio, each baselineReport, and
// one head report per ratio with the compiled rate scaled by it.
func pairs(t *testing.T, ratios ...float64) (parents, heads []*benchreport.Report) {
	for _, r := range ratios {
		parents = append(parents, report(t, baselineReport))
		heads = append(heads, report(t, withRate(baselineReport, 2200*r)))
	}
	return parents, heads
}

// TestComparePairedThreshold: a host row fails when the median of its
// per-pair head/parent ratios falls below 1 - tolerance, whatever the
// single pairs do. The two sweeps differ by 0.01 in every pair, moving
// the median from 0.905 to 0.895 across the 0.90 line.
func TestComparePairedThreshold(t *testing.T) {
	above := []float64{0.95, 0.85, 0.92, 0.88, 0.91, 0.90, 0.93, 0.87, 0.89, 0.94}
	below := make([]float64, len(above))
	for i, r := range above {
		below[i] = r - 0.01
	}
	p, h := pairs(t, above...)
	if err := benchreport.ComparePaired(io.Discard, p, h, 0.10); err != nil {
		t.Fatalf("median 0.905 failed a 10%% tolerance: %v", err)
	}
	p, h = pairs(t, below...)
	err := benchreport.ComparePaired(io.Discard, p, h, 0.10)
	if err == nil || !strings.Contains(err.Error(), "latency.single_thread.compiled_sm_per_sec") {
		t.Fatalf("median 0.895 not caught by a 10%% tolerance: %v", err)
	}
}

// TestCompareServeMetric: service goodput is a host row; the
// serve smoke compares a steady run with the recorded one as a single
// pair.
func TestCompareServeMetric(t *testing.T) {
	base := report(t, goodServe)
	if err := benchreport.ComparePaired(io.Discard, []*benchreport.Report{base}, []*benchreport.Report{base}, 0.10); err != nil {
		t.Fatalf("identical serve reports must compare cleanly: %v", err)
	}
	slow := report(t, strings.Replace(goodServe,
		`"goodput_sm_per_sec": 560.5`, `"goodput_sm_per_sec": 400`, 1))
	err := benchreport.ComparePaired(io.Discard, []*benchreport.Report{base}, []*benchreport.Report{slow}, 0.10)
	if err == nil {
		t.Fatal("28% serve goodput regression passed the gate")
	}
	if !strings.Contains(err.Error(), "serve.goodput_sm_per_sec") {
		t.Fatalf("error %q does not name the serve metric", err)
	}
}

// baselineReport carries two host rows: the throughput peak (433.8, at
// 4 workers) and the latency single-thread compiled rate (2200).
const baselineReport = `{
  "schema": "fourq-bench/v1",
  "experiments": {
    "latency": {
      "cycles_functional": 3940,
      "cycles_endo_modeled": 1981,
      "fmax_mhz_1v20": 196.1,
      "latency_us_1v20": 10.1,
      "latency_us_0v32": 857,
      "rtl_stats": ` + goodRTLStats + `,
      "single_thread": {
        "compiled_sm_per_sec": 2200,
        "interpreted_sm_per_sec": 400,
        "speedup": 5.5
      }
    },
    "throughput": {
      "num_cpu": 4,
      "sms_per_point": 24,
      "points": [
        {"workers": 1, "sms": 24, "seconds": 0.0585, "sm_per_sec": 410.2, "speedup": 1, "oracle_ok": true},
        {"workers": 4, "sms": 24, "seconds": 0.0553, "sm_per_sec": 433.8, "speedup": 1.06, "oracle_ok": true}
      ],
      "max_speedup": 1.06,
      "build_shared": true,
      "queue_depth": 48,
      "engine_cache_size": 1,
      "verified_all": true,
      "schedule_cycles": 3940,
      "solver": "list"
    }
  }
}`

// TestCompare runs one pair per case: the host rows a report shares
// with its parent gate it, in either direction of the tolerance.
func TestCompare(t *testing.T) {
	cases := []struct {
		name    string
		parent  string
		cur     string
		tol     float64
		wantErr string // empty = must pass
	}{
		{"identical", baselineReport, baselineReport, 0.10, ""},
		{"small dip within tolerance", baselineReport, withRate(baselineReport, 2050), 0.10, ""},
		{"single-thread regression", baselineReport, withRate(baselineReport, 1500), 0.10, "single_thread"},
		{"throughput regression", baselineReport, strings.Replace(strings.Replace(baselineReport,
			`"sm_per_sec": 433.8`, `"sm_per_sec": 310`, 1),
			`"sm_per_sec": 410.2`, `"sm_per_sec": 300`, 1), 0.10, "throughput"},
		{"tight tolerance trips", baselineReport, withRate(baselineReport, 2100), 0.01, "regression"},
		{"no shared metric", baselineReport, goodFaults, 0.10, "no host metric"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := benchreport.ComparePaired(io.Discard,
				[]*benchreport.Report{report(t, c.parent)}, []*benchreport.Report{report(t, c.cur)}, c.tol)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("compare failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("compare accepted %s", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestCompareBatchMetric: the lockstep peak lane rate is a host row.
func TestCompareBatchMetric(t *testing.T) {
	base := []*benchreport.Report{report(t, goodBatch)}
	if err := benchreport.ComparePaired(io.Discard, base, base, 0.10); err != nil {
		t.Fatalf("identical batch reports must compare cleanly: %v", err)
	}
	slow := strings.Replace(strings.Replace(goodBatch,
		`"sm_per_sec": 7000.0, "speedup": 2.41`, `"sm_per_sec": 4500.0, "speedup": 1.55`, 1),
		`"peak_lane_sm_per_sec": 7000.0`, `"peak_lane_sm_per_sec": 4800.0`, 1)
	slow = strings.Replace(slow, `"verified_all": true`,
		`"note": "synthetic regression", "verified_all": true`, 1)
	err := benchreport.ComparePaired(io.Discard, base, []*benchreport.Report{report(t, slow)}, 0.10)
	if err == nil {
		t.Fatal("31% lane-rate regression passed the gate")
	}
	if !strings.Contains(err.Error(), "batch.peak_lane") {
		t.Fatalf("error %q does not name the lane metric", err)
	}
}

// TestCompareLegacyBaseline: a parent report predating a row (no
// single_thread block here) still gates on the rows it does carry.
func TestCompareLegacyBaseline(t *testing.T) {
	legacy := []*benchreport.Report{report(t, goodThroughput)}
	if err := benchreport.ComparePaired(io.Discard, legacy, []*benchreport.Report{report(t, baselineReport)}, 0.10); err != nil {
		t.Fatalf("legacy parent with only throughput should compare cleanly: %v", err)
	}
	slow := strings.Replace(strings.Replace(baselineReport,
		`"sm_per_sec": 433.8`, `"sm_per_sec": 110`, 1),
		`"sm_per_sec": 410.2`, `"sm_per_sec": 100`, 1)
	if err := benchreport.ComparePaired(io.Discard, legacy, []*benchreport.Report{report(t, slow)}, 0.10); err == nil {
		t.Fatal("throughput regression vs legacy parent not caught")
	}
}

// TestComparePairedCounts: pairs must match one to one.
func TestComparePairedCounts(t *testing.T) {
	p, h := pairs(t, 1, 1)
	if err := benchreport.ComparePaired(io.Discard, p, h[:1], 0.10); err == nil {
		t.Fatal("2 parents against 1 report accepted")
	}
	if err := benchreport.ComparePaired(io.Discard, nil, nil, 0.10); err == nil {
		t.Fatal("zero pairs accepted")
	}
}

// TestCommittedBaselines runs the shared Check over every committed
// baseline, and the exact rows of BENCH_rtl.json against themselves.
func TestCommittedBaselines(t *testing.T) {
	for _, name := range []string{"BENCH_rtl.json", "BENCH_chaos.json", "BENCH_serve.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		r, err := check(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "BENCH_rtl.json" {
			if err := benchreport.CompareExact(io.Discard, r, r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestCheckRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"garbage", "{not json", "parse"},
		// Regression for the exit-code satellite: a report carrying an
		// errors map is a partial run and must fail validation even when
		// the successful experiments look healthy.
		{"failed experiments", strings.Replace(goodReport, `"experiments"`,
			`"errors": {"throughput": "synthetic failure"}, "experiments"`, 1), "failed experiments"},
		{"throughput no points", strings.Replace(goodThroughput,
			`"points": [
        {"workers": 1, "sms": 24, "seconds": 0.0585, "sm_per_sec": 410.2, "speedup": 1, "oracle_ok": true},
        {"workers": 4, "sms": 24, "seconds": 0.0553, "sm_per_sec": 433.8, "speedup": 1.06, "oracle_ok": true}
      ]`, `"points": []`, 1), "no points"},
		{"throughput zero rate", strings.Replace(goodThroughput, `"sm_per_sec": 433.8`, `"sm_per_sec": 0`, 1), "sm_per_sec"},
		{"throughput bad workers", strings.Replace(goodThroughput, `"workers": 4`, `"workers": 0`, 1), "workers"},
		{"throughput sms mismatch", strings.Replace(goodThroughput, `"workers": 4, "sms": 24`, `"workers": 4, "sms": 12`, 1), "sms"},
		{"throughput oracle fail", strings.Replace(goodThroughput, `"speedup": 1.06, "oracle_ok": true`, `"speedup": 1.06, "oracle_ok": false`, 1), "oracle_ok"},
		{"throughput unverified", strings.Replace(goodThroughput, `"verified_all": true`, `"verified_all": false`, 1), "verified_all"},
		{"throughput no schedule cycles", strings.Replace(goodThroughput,
			`"schedule_cycles": 3756,`, `"schedule_cycles": 0,`, 1), "schedule_cycles"},
		{"throughput no solver", strings.Replace(goodThroughput,
			`"solver": "portfolio"`, `"solver": ""`, 1), "solver"},
		{"wrong schema", `{"schema":"v0","experiments":{}}`, "schema"},
		{"no experiments", `{"schema":"fourq-bench/v1","experiments":{}}`, "no experiments"},
		{"no rtl stats", `{"schema":"fourq-bench/v1","experiments":{"table1":{"makespan":23}}}`, "rtl_stats"},
		{"zero cycles", strings.Replace(goodReport, `"cycles": 3940`, `"cycles": 0`, 1), "cycles"},
		{"bad mul util", strings.Replace(goodReport, `"mul_utilization": 0.657`, `"mul_utilization": 0`, 1), "mul_utilization"},
		{"bad add util", strings.Replace(goodReport, `"add_utilization": 0.526`, `"add_utilization": 1.5`, 1), "add_utilization"},
		{"missing forwarded", strings.Replace(goodReport, `"forwarded_reads": 3393,`, ``, 1), "forwarded_reads"},
		{"missing elided", strings.Replace(goodReport, `"elided_writes": 0`, `"unrelated": 0`, 1), "elided_writes"},
		// The faults campaign: a silent-corruption rate without the full
		// replay recipe is unreproducible and must be rejected.
		{"faults no campaign", strings.Replace(goodFaults,
			`"campaign": {"seed": 999447, "trials": 8, "sites": ["regfile", "rom"], "validation": "oncurve"},`,
			``, 1), "campaign missing"},
		{"faults no seed", strings.Replace(goodFaults, `"seed": 999447, `, ``, 1), "seed"},
		{"faults zero trials", strings.Replace(goodFaults, `"trials": 8,`, `"trials": 0,`, 1), "trials"},
		{"faults no sites", strings.Replace(goodFaults, `"sites": ["regfile", "rom"]`, `"sites": []`, 1), "sites"},
		{"faults no validation", strings.Replace(goodFaults, `"validation": "oncurve"`, `"validation": ""`, 1), "validation"},
		{"faults tally mismatch", strings.Replace(goodFaults, `"masked": 4,`, `"masked": 5,`, 1), "detected+silent+masked"},
		{"faults coverage range", strings.Replace(goodFaults, `"detection_coverage": 0.75,`, `"detection_coverage": 1.75,`, 1), "detection_coverage"},
		{"faults coverage missing", strings.Replace(goodFaults, `"detection_coverage": 0.75,`, ``, 1), "detection_coverage"},
		{"faults site mismatch", strings.Replace(goodFaults,
			`"rom": {"trials": 3, "detected": 1, "silent": 0, "masked": 2}`,
			`"rom": {"trials": 3, "detected": 0, "silent": 1, "masked": 2}`, 1), "by_site"},
		// The batch lane sweep: a block without the sweep carries no
		// evidence the lockstep path was measured at all.
		{"batch no lane widths", strings.Replace(goodBatch, `"lane_widths": [
        {"width": 1, "sm_per_sec": 2900.0, "speedup": 1, "oracle_ok": true},
        {"width": 2, "sm_per_sec": 4800.0, "speedup": 1.66, "oracle_ok": true},
        {"width": 4, "sm_per_sec": 7000.0, "speedup": 2.41, "oracle_ok": true}
      ]`, `"lane_widths": []`, 1), "no lane_widths"},
		{"batch zero rate", strings.Replace(goodBatch, `"sm_per_sec": 2900.0`, `"sm_per_sec": 0`, 1), "sm_per_sec"},
		{"batch oracle fail", strings.Replace(goodBatch, `"speedup": 2.41, "oracle_ok": true`, `"speedup": 2.41, "oracle_ok": false`, 1), "oracle_ok"},
		{"batch unverified", strings.Replace(goodBatch, `"verified_all": true`, `"verified_all": false`, 1), "verified_all"},
		{"batch widths not ascending", strings.Replace(goodBatch, `{"width": 2, `, `{"width": 1, `, 1), "ascending"},
		{"batch wrong peak", strings.Replace(goodBatch, `"peak_lane_sm_per_sec": 7000.0`, `"peak_lane_sm_per_sec": 9000.0`, 1), "peak_lane_sm_per_sec"},
		{"batch engine lanes unused", strings.Replace(goodBatch, `"lane_runs": 8, "lane_lanes": 32`, `"lane_runs": 0, "lane_lanes": 0`, 1), "lockstep path unused"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := check([]byte(c.doc))
			if err == nil {
				t.Fatalf("check accepted %s", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// The sched rows mirror a real -exp sched -sched portfolio run: per
// program row, the list scheduler against the portfolio, both
// RTL-proven, with the determinism cross-check, the ROM and the
// differential evidence recorded.
const (
	vbRow = `{
        "program": "variablebase",
        "trace_ops": 4663,
        "lower_bound": 3010,
        "single": {"solver": "list", "makespan": 3940, "mul_utilization": 0.657, "add_utilization": 0.526, "stall_cycles": 291, "solve_seconds": 0.01},
        "portfolio": {"solver": "portfolio", "makespan": 3756, "mul_utilization": 0.689, "add_utilization": 0.552, "stall_cycles": 351, "solve_seconds": 15.0},
        "improvements": 6,
        "rounds": 6,
        "seed": 1,
        "schedule_hash": "039059a484ff3833",
        "deterministic": true,
        "rom_windows": 0,
        "rom_reads": 0,
        "validated": 6
      }`
	fbRow = `{
        "program": "fixedbase",
        "trace_ops": 1152,
        "lower_bound": 937,
        "single": {"solver": "list", "makespan": 1128, "mul_utilization": 0.623, "add_utilization": 0.398, "stall_cycles": 234, "solve_seconds": 0.004},
        "portfolio": {"solver": "portfolio", "makespan": 1128, "mul_utilization": 0.623, "add_utilization": 0.398, "stall_cycles": 234, "solve_seconds": 3.8},
        "improvements": 0,
        "rounds": 6,
        "seed": 1,
        "schedule_hash": "82d4417b9c7d29fa",
        "deterministic": true,
        "rom_windows": 62,
        "rom_reads": 248,
        "validated": 6
      }`
	endoRow = `{
        "program": "endo",
        "trace_ops": 2167,
        "lower_bound": 1495,
        "single": {"solver": "list", "makespan": 1869, "mul_utilization": 0.666, "add_utilization": 0.493, "stall_cycles": 291, "solve_seconds": 0.01},
        "portfolio": {"solver": "portfolio", "makespan": 1868, "mul_utilization": 0.666, "add_utilization": 0.494, "stall_cycles": 291, "solve_seconds": 7.4},
        "improvements": 1,
        "rounds": 6,
        "seed": 1,
        "schedule_hash": "df8abfa386b32ad4",
        "deterministic": true,
        "rom_windows": 0,
        "rom_reads": 0,
        "validated": 6
      }`
)

// schedReport is a sched report carrying rows.
func schedReport(rows ...string) string {
	return `{
  "schema": "fourq-bench/v1",
  "experiments": {
    "sched": {
      "programs": [` + strings.Join(rows, ", ") + `]
    }
  }
}`
}

var goodSched = schedReport(vbRow, fbRow, endoRow)

func TestCheckSchedGood(t *testing.T) {
	if _, err := check([]byte(goodSched)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckSchedRejects: the sched experiment's non-negotiables — a
// portfolio that loses to its own warm start, a makespan below the
// machine-load lower bound, missing utilization evidence, a failed
// determinism cross-check, a ROM row that reads no ROM, no
// differential evidence, or a comb that does not beat the
// variable-base list schedule must all fail validation.
func TestCheckSchedRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"portfolio worse than single", strings.Replace(goodSched,
			`"makespan": 3756`, `"makespan": 4100`, 1), "warm start"},
		{"missing single row", strings.Replace(goodSched,
			`"single": {"solver": "list", "makespan": 3940, "mul_utilization": 0.657, "add_utilization": 0.526, "stall_cycles": 291, "solve_seconds": 0.01},`,
			``, 1), "single missing"},
		{"zero makespan", strings.Replace(goodSched,
			`"makespan": 3756`, `"makespan": 0`, 1), "makespan"},
		{"missing mul utilization", strings.Replace(goodSched,
			`"mul_utilization": 0.689, `, ``, 1), "mul_utilization"},
		{"mul utilization out of range", strings.Replace(goodSched,
			`"mul_utilization": 0.689`, `"mul_utilization": 1.4`, 1), "mul_utilization"},
		{"missing add utilization", strings.Replace(goodSched,
			`"add_utilization": 0.552, `, ``, 1), "add_utilization"},
		{"missing stall cycles", strings.Replace(goodSched,
			`"stall_cycles": 351, `, ``, 1), "stall_cycles"},
		{"lower bound missing", strings.Replace(goodSched,
			`"lower_bound": 3010,`, `"lower_bound": 0,`, 1), "lower_bound"},
		{"lower bound above makespan", strings.Replace(goodSched,
			`"lower_bound": 3010,`, `"lower_bound": 3800,`, 1), "lower_bound"},
		{"missing hash", strings.Replace(goodSched,
			`"schedule_hash": "039059a484ff3833",`, ``, 1), "schedule_hash"},
		{"not deterministic", strings.Replace(goodSched,
			`"deterministic": true`, `"deterministic": false`, 1), "deterministic"},
		{"no trace ops", strings.Replace(goodSched,
			`"trace_ops": 4663,`, `"trace_ops": 0,`, 1), "trace_ops"},
		{"comb does not beat variable-base", strings.ReplaceAll(goodSched,
			`"makespan": 1128`, `"makespan": 3940`), "does not beat"},
		{"ROM row without ROM reads", strings.Replace(goodSched,
			`"rom_reads": 248`, `"rom_reads": 0`, 1), "rom_reads"},
		{"no differential evidence", strings.Replace(goodSched,
			`"validated": 6`, `"validated": 0`, 1), "validated"},
		{"comb without variable-base row", schedReport(fbRow, endoRow), "without the variablebase row"},
		{"repeated program", schedReport(vbRow, vbRow), "repeated"},
		{"no programs", schedReport(), "no programs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := check([]byte(c.doc))
			if err == nil {
				t.Fatalf("check accepted %s", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestCompareSchedMetric: every exact value of every program row must
// match the baseline with zero tolerance, so a one-cycle drift or a
// changed hash fails in either direction (a deliberately shorter
// schedule re-records the baseline), and so does a baseline row the
// report lacks.
func TestCompareSchedMetric(t *testing.T) {
	base := report(t, goodSched)
	cases := []struct {
		name, cur, wantErr string // empty wantErr = must pass
	}{
		{"identical", goodSched, ""},
		{"portfolio one cycle longer", strings.Replace(goodSched,
			`"makespan": 3756`, `"makespan": 3757`, 1), "sched.programs[variablebase].portfolio.makespan"},
		{"portfolio shorter", strings.Replace(goodSched,
			`"makespan": 3756`, `"makespan": 3700`, 1), "sched.programs[variablebase].portfolio.makespan"},
		{"changed hash", strings.Replace(goodSched,
			`"schedule_hash": "039059a484ff3833"`, `"schedule_hash": "039059a484ff3834"`, 1), "sched.programs[variablebase].schedule_hash"},
		{"lower bound moved", strings.Replace(goodSched,
			`"lower_bound": 3010`, `"lower_bound": 3011`, 1), "sched.programs[variablebase].lower_bound"},
		{"endo one cycle shorter", strings.Replace(goodSched,
			`"makespan": 1868`, `"makespan": 1867`, 1), "sched.programs[endo].portfolio.makespan"},
		{"comb hash changed", strings.Replace(goodSched,
			`"schedule_hash": "82d4417b9c7d29fa"`, `"schedule_hash": "82d4417b9c7d29fb"`, 1), "sched.programs[fixedbase].schedule_hash"},
		{"baseline row missing", schedReport(vbRow, fbRow), "no endo row"},
		{"no shared metric", goodThroughput, "no exact metric"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := benchreport.CompareExact(io.Discard, base, report(t, c.cur))
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("compare failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("compare accepted %s", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

const goodChaos = `{
  "schema": "fourq-bench/v1",
  "experiments": {
    "chaos": {
      "seed": 1,
      "requests_per_phase": 60,
      "scenarios": [
        {
          "name": "faulty-shard",
          "seed": -5569162553654349038,
          "faults_injected": 3906,
          "phases": {},
          "requests": {"total": 546, "ok": 546, "shed": 0, "rate_limited": 0, "canceled": 0, "drained": 0, "failed": 0},
          "mis_answered": 0,
          "lost": 0,
          "duplicates": 0,
          "engine_rejected": 0,
          "shards_ejected": 1,
          "shards_rebuilt": 1,
          "hedge_wins": 0,
          "recovery_ms": 12.5,
          "recovery_ratio": 1.06,
          "violations": []
        },
        {
          "name": "saturation",
          "seed": 77,
          "faults_injected": 1,
          "phases": {},
          "requests": {"total": 540, "ok": 363, "shed": 177, "rate_limited": 0, "canceled": 0, "drained": 0, "failed": 0},
          "mis_answered": 0,
          "lost": 0,
          "duplicates": 0,
          "engine_rejected": 0,
          "shards_ejected": 0,
          "shards_rebuilt": 0,
          "hedge_wins": 0,
          "recovery_ratio": 1.11,
          "violations": []
        }
      ],
      "faults_injected": 3907,
      "mis_answered": 0,
      "lost": 0,
      "duplicates": 0,
      "engine_rejected": 0,
      "min_recovery_ratio": 1.06,
      "violations": []
    }
  }
}`

func TestCheckChaosGood(t *testing.T) {
	if _, err := check([]byte(goodChaos)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckChaosRejects: the chaos campaign's non-negotiables — a
// campaign that injected nothing, tallies that do not reconcile with
// the per-scenario totals, any breach of the exactly-once or
// shed-before-backpressure invariants, or a recovery ratio under the
// floor must all fail validation.
func TestCheckChaosRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"zero faults campaign", strings.Replace(strings.Replace(strings.Replace(goodChaos,
			`"faults_injected": 3907`, `"faults_injected": 0`, 1),
			`"faults_injected": 3906`, `"faults_injected": 0`, 1),
			`"faults_injected": 1`, `"faults_injected": 0`, 1), "zero faults"},
		{"zero faults scenario", strings.Replace(goodChaos,
			`"faults_injected": 1`, `"faults_injected": 0`, 1), "injected zero faults"},
		{"missing campaign seed", strings.Replace(goodChaos,
			`"seed": 1,`, ``, 1), "seed missing"},
		{"missing scenario seed", strings.Replace(goodChaos,
			`"seed": 77,`, ``, 1), "scenarios[1].seed missing"},
		{"unreconciled tallies", strings.Replace(goodChaos,
			`"shed": 177`, `"shed": 100`, 1), "tallies"},
		{"lost requests", strings.Replace(goodChaos,
			`"lost": 0,
          "duplicates": 0,
          "engine_rejected": 0,
          "shards_ejected": 1`,
			`"lost": 3,
          "duplicates": 0,
          "engine_rejected": 0,
          "shards_ejected": 1`, 1), "exactly-once"},
		{"duplicated answers", strings.Replace(goodChaos,
			`"duplicates": 0,
          "engine_rejected": 0,
          "shards_ejected": 0`,
			`"duplicates": 2,
          "engine_rejected": 0,
          "shards_ejected": 0`, 1), "exactly-once"},
		{"mis-answered", strings.Replace(goodChaos,
			`"mis_answered": 0,
          "lost": 0,
          "duplicates": 0,
          "engine_rejected": 0,
          "shards_ejected": 1`,
			`"mis_answered": 1,
          "lost": 0,
          "duplicates": 0,
          "engine_rejected": 0,
          "shards_ejected": 1`, 1), "mis_answered"},
		{"engine rejected", strings.Replace(goodChaos,
			`"engine_rejected": 0,
          "shards_ejected": 0`,
			`"engine_rejected": 4,
          "shards_ejected": 0`, 1), "shed must precede backpressure"},
		{"recovery under floor", strings.Replace(goodChaos,
			`"recovery_ratio": 1.11`, `"recovery_ratio": 0.62`, 1), "below the 0.90 floor"},
		{"violations recorded", strings.Replace(goodChaos,
			`"min_recovery_ratio": 1.06,
      "violations": []`,
			`"min_recovery_ratio": 1.06,
      "violations": ["saturation: burst was never shed"]`, 1), "violation"},
		{"fault sum mismatch", strings.Replace(goodChaos,
			`"faults_injected": 3907`, `"faults_injected": 9999`, 1), "campaign total"},
		{"no scenarios", strings.Replace(goodChaos,
			`"scenarios": [`, `"scenarios_off": [`, 1), "scenarios missing"},
		{"no recovery ratio anywhere", strings.Replace(strings.Replace(goodChaos,
			`"recovery_ratio": 1.06,`, ``, 1),
			`"recovery_ratio": 1.11,`, ``, 1), "recovery ratio"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := check([]byte(c.doc))
			if err == nil {
				t.Fatalf("check accepted %s", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

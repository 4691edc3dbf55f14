package benchreport

import (
	"fmt"

	"repro/internal/rtl"
	"repro/internal/trace"
)

// RTLStats is rtl.Stats with the report's snake_case keys.
type RTLStats struct {
	Cycles            int            `json:"cycles"`
	MulIssues         int            `json:"mul_issues"`
	AddIssues         int            `json:"add_issues"`
	RegReads          int            `json:"reg_reads"`
	RegWrites         int            `json:"reg_writes"`
	ElidedWrites      int            `json:"elided_writes"`
	ForwardedReads    int            `json:"forwarded_reads"`
	ROMReads          int            `json:"rom_reads"`
	MulUtilization    float64        `json:"mul_utilization"`
	AddUtilization    float64        `json:"add_utilization"`
	StallCycles       int            `json:"stall_cycles"`
	ReadPortPressure  [5]int         `json:"read_port_pressure"`
	WritePortPressure [3]int         `json:"write_port_pressure"`
	IssuesByOpcode    map[string]int `json:"issues_by_opcode"`
}

var _ = RTLStats(rtl.Stats{}) // layouts must stay convertible

// Check requires a real RTL run: positive cycles and utilizations.
func (s *RTLStats) Check() error {
	if s.Cycles <= 0 {
		return fmt.Errorf("rtl_stats.cycles = %d, want > 0", s.Cycles)
	}
	if err := unitInterval("rtl_stats.mul_utilization", s.MulUtilization); err != nil {
		return err
	}
	return unitInterval("rtl_stats.add_utilization", s.AddUtilization)
}

// unitInterval requires v in (0, 1].
func unitInterval(name string, v float64) error {
	if v <= 0 || v > 1 {
		return fmt.Errorf("%s = %v, want in (0, 1]", name, v)
	}
	return nil
}

// Profile is the -exp profile entry (E1): the op mix of the functional
// trace and one RTL run's statistics.
type Profile struct {
	TraceOps trace.Stats `json:"trace_ops"`
	RTLStats RTLStats    `json:"rtl_stats"`
}

// Check validates the RTL run.
func (p *Profile) Check() error { return p.RTLStats.Check() }

// Latency is the -exp latency entry (E3): the modeled-silicon cycle
// counts and latencies, one RTL run's statistics, and the host's
// single-thread rate of the compiled plan against the interpreter.
type Latency struct {
	CyclesFunctional  int          `json:"cycles_functional"`
	CyclesEndoModeled int          `json:"cycles_endo_modeled"`
	FmaxMHz1V20       float64      `json:"fmax_mhz_1v20"`
	LatencyUS1V20     float64      `json:"latency_us_1v20"`
	LatencyUS0V32     float64      `json:"latency_us_0v32"`
	RTLStats          RTLStats     `json:"rtl_stats"`
	SingleThread      SingleThread `json:"single_thread"`
}

// SingleThread is host SM/s on one goroutine.
type SingleThread struct {
	CompiledSMPerSec    float64 `json:"compiled_sm_per_sec"`
	InterpretedSMPerSec float64 `json:"interpreted_sm_per_sec"`
	Speedup             float64 `json:"speedup"`
}

// Check validates the RTL run.
func (l *Latency) Check() error { return l.RTLStats.Check() }

// Throughput is the -exp throughput entry (E8): batch-engine SM/s
// against the worker count.
type Throughput struct {
	NumCPU      int               `json:"num_cpu"`
	SMsPerPoint int               `json:"sms_per_point"`
	Points      []ThroughputPoint `json:"points"`
	MaxSpeedup  float64           `json:"max_speedup"`
	BuildShared bool              `json:"build_shared"`
	QueueDepth  int               `json:"queue_depth"`
	VerifiedAll bool              `json:"verified_all"`
	// ScheduleCycles and Solver record the schedule every measured SM
	// executed (the functional program's cycle count) and which solver
	// produced it: the provenance linking a throughput number to the
	// scheduling layer that earned it.
	ScheduleCycles int    `json:"schedule_cycles"`
	Solver         string `json:"solver"`
	EngineCached   int    `json:"engine_cache_size"`
}

// ThroughputPoint is one worker-count measurement of the batch engine.
type ThroughputPoint struct {
	Workers  int     `json:"workers"`
	SMs      int     `json:"sms"`
	Seconds  float64 `json:"seconds"`
	SMPerSec float64 `json:"sm_per_sec"`
	// Speedup is SMPerSec relative to the 1-worker point.
	Speedup float64 `json:"speedup"`
	// OracleOK records that every result matched the functional curve
	// model (core.ValidateOracle).
	OracleOK bool `json:"oracle_ok"`
}

// PeakSMPerSec is the fastest point's rate.
func (t *Throughput) PeakSMPerSec() float64 {
	peak := 0.0
	for _, p := range t.Points {
		peak = max(peak, p.SMPerSec)
	}
	return peak
}

// Check requires every point to report a positive rate for a positive
// worker count over the advertised number of SMs, oracle-verified, and
// the schedule's provenance.
func (t *Throughput) Check() error {
	if len(t.Points) == 0 {
		return fmt.Errorf("no points")
	}
	if t.SMsPerPoint <= 0 {
		return fmt.Errorf("sms_per_point = %d, want > 0", t.SMsPerPoint)
	}
	if !t.VerifiedAll {
		return fmt.Errorf("verified_all = false")
	}
	if t.ScheduleCycles <= 0 {
		return fmt.Errorf("schedule_cycles = %d, want > 0 (what schedule did the SMs run?)", t.ScheduleCycles)
	}
	if t.Solver == "" {
		return fmt.Errorf("solver missing (scheduling provenance is part of the result)")
	}
	for i, p := range t.Points {
		switch {
		case p.Workers < 1:
			return fmt.Errorf("point %d: workers = %d, want >= 1", i, p.Workers)
		case p.SMs != t.SMsPerPoint:
			return fmt.Errorf("point %d: sms = %d, want %d", i, p.SMs, t.SMsPerPoint)
		case p.SMPerSec <= 0:
			return fmt.Errorf("point %d: sm_per_sec = %v, want > 0", i, p.SMPerSec)
		case p.Speedup <= 0:
			return fmt.Errorf("point %d: speedup = %v, want > 0", i, p.Speedup)
		case !p.OracleOK:
			return fmt.Errorf("point %d: oracle_ok = false", i)
		}
	}
	return nil
}

// Batch is the -exp batch entry: host SM/s of the lockstep lane path
// across lane widths, and the engine's coalescing path at one width.
type Batch struct {
	NumCPU           int               `json:"num_cpu"`
	LaneWidths       []LanePoint       `json:"lane_widths"`
	PeakLaneSMPerSec float64           `json:"peak_lane_sm_per_sec"`
	Engine           *BatchEnginePoint `json:"engine,omitempty"`
	// Note explains a non-monotone sweep, which Check rejects without
	// one: on a noisy shared host a wider batch can lose a point to
	// scheduling jitter even though the amortization is real.
	Note        string `json:"note,omitempty"`
	VerifiedAll bool   `json:"verified_all"`
}

// LanePoint is one lane width's measurement of the lockstep path.
type LanePoint struct {
	Width    int     `json:"width"`
	SMPerSec float64 `json:"sm_per_sec"`
	// Speedup is SMPerSec relative to the narrowest point.
	Speedup float64 `json:"speedup"`
	// OracleOK records that every lane of a verification pass matched
	// the functional curve model before any timing started.
	OracleOK bool `json:"oracle_ok"`
}

// BatchEnginePoint is SubmitBatch wall-clock SM/s at a fixed lane
// width, with the lockstep telemetry proving the lane path served it.
type BatchEnginePoint struct {
	LaneWidth int     `json:"lane_width"`
	Workers   int     `json:"workers"`
	SMs       int     `json:"sms"`
	SMPerSec  float64 `json:"sm_per_sec"`
	LaneRuns  int64   `json:"lane_runs"`
	LaneLanes int64   `json:"lane_lanes"`
	OracleOK  bool    `json:"oracle_ok"`
}

// Check requires the sweep, oracle-verified, at ascending widths with
// positive rates, monotone in SM/s unless a note says why, its peak
// recorded, and an engine point that actually ran lanes.
func (b *Batch) Check() error {
	if len(b.LaneWidths) == 0 {
		return fmt.Errorf("no lane_widths points (the lane sweep is the experiment)")
	}
	if !b.VerifiedAll {
		return fmt.Errorf("verified_all = false")
	}
	peak := 0.0
	for i, p := range b.LaneWidths {
		switch {
		case p.Width < 1:
			return fmt.Errorf("point %d: width = %d, want >= 1", i, p.Width)
		case i > 0 && p.Width <= b.LaneWidths[i-1].Width:
			return fmt.Errorf("point %d: width %d not ascending", i, p.Width)
		case p.SMPerSec <= 0:
			return fmt.Errorf("point %d: sm_per_sec = %v, want > 0", i, p.SMPerSec)
		case p.Speedup <= 0:
			return fmt.Errorf("point %d: speedup = %v, want > 0", i, p.Speedup)
		case !p.OracleOK:
			return fmt.Errorf("point %d: oracle_ok = false", i)
		case i > 0 && p.SMPerSec < b.LaneWidths[i-1].SMPerSec && b.Note == "":
			return fmt.Errorf("sm_per_sec drops at width %d with no note explaining it", p.Width)
		}
		peak = max(peak, p.SMPerSec)
	}
	if b.PeakLaneSMPerSec != peak {
		return fmt.Errorf("peak_lane_sm_per_sec = %v, but the sweep's maximum is %v", b.PeakLaneSMPerSec, peak)
	}
	if e := b.Engine; e != nil {
		switch {
		case e.SMPerSec <= 0:
			return fmt.Errorf("engine: sm_per_sec = %v, want > 0", e.SMPerSec)
		case e.LaneRuns < 1 || e.LaneLanes < int64(e.LaneWidth):
			return fmt.Errorf("engine: lockstep path unused (lane_runs=%d lane_lanes=%d, width %d)",
				e.LaneRuns, e.LaneLanes, e.LaneWidth)
		case !e.OracleOK:
			return fmt.Errorf("engine: oracle_ok = false")
		}
	}
	return nil
}

// SolverRow is one solver's schedule, compiled through the RTL hazard
// prover.
type SolverRow struct {
	Solver         string  `json:"solver"`
	Makespan       int     `json:"makespan"`
	MulUtilization float64 `json:"mul_utilization"`
	AddUtilization float64 `json:"add_utilization"`
	StallCycles    int     `json:"stall_cycles"`
	SolveSeconds   float64 `json:"solve_seconds"`
}

// SchedRow is one row of core's program table solved by the
// single-pass list scheduler and by the pinned-seed portfolio, with its
// ROM and its differential evidence.
type SchedRow struct {
	// Program names the row (core.ProgramID's String).
	Program      string    `json:"program"`
	TraceOps     int       `json:"trace_ops"`
	LowerBound   int       `json:"lower_bound"`
	Single       SolverRow `json:"single"`
	Portfolio    SolverRow `json:"portfolio"`
	Improvements int       `json:"improvements"`
	Rounds       int       `json:"rounds"`
	Seed         int64     `json:"seed"`
	ScheduleHash string    `json:"schedule_hash"`
	// Deterministic records that a second, independent portfolio solve
	// with identical options reproduced ScheduleHash.
	Deterministic bool `json:"deterministic"`
	ROMWindows    int  `json:"rom_windows"`
	ROMReads      int  `json:"rom_reads"`
	// Validated counts the scalars whose compiled-row output matched
	// curve.ScalarMult bit for bit.
	Validated int `json:"validated"`
}

// Check requires RTL-proven utilization evidence on both solver rows,
// a portfolio no worse than its own warm start, makespans above the
// lower bound, the determinism cross-check passed (a schedule whose
// hash cannot be reproduced from its seed is not a committable
// baseline), ROM reads wherever the row has ROM, and differential
// evidence.
func (r *SchedRow) Check() error {
	if r.TraceOps <= 0 {
		return fmt.Errorf("trace_ops = %d, want > 0", r.TraceOps)
	}
	for _, s := range []struct {
		name string
		row  SolverRow
	}{{"single", r.Single}, {"portfolio", r.Portfolio}} {
		if s.row.Makespan <= 0 {
			return fmt.Errorf("%s.makespan = %d, want > 0", s.name, s.row.Makespan)
		}
		if err := unitInterval(s.name+".mul_utilization", s.row.MulUtilization); err != nil {
			return err
		}
		if err := unitInterval(s.name+".add_utilization", s.row.AddUtilization); err != nil {
			return err
		}
		if s.row.StallCycles < 0 {
			return fmt.Errorf("%s.stall_cycles = %d, want >= 0", s.name, s.row.StallCycles)
		}
	}
	switch {
	case r.Portfolio.Makespan > r.Single.Makespan:
		return fmt.Errorf("portfolio makespan %d exceeds single-solver makespan %d (the portfolio must never lose to its own warm start)",
			r.Portfolio.Makespan, r.Single.Makespan)
	case r.LowerBound <= 0 || r.LowerBound > r.Portfolio.Makespan:
		return fmt.Errorf("lower_bound = %d, want in (0, %d] (a schedule below the machine-load bound is impossible)",
			r.LowerBound, r.Portfolio.Makespan)
	case r.ScheduleHash == "":
		return fmt.Errorf("schedule_hash missing (the reproducibility handle is part of the result)")
	case !r.Deterministic:
		return fmt.Errorf("deterministic = false — the rerun did not reproduce the schedule")
	case r.ROMWindows < 0 || r.ROMWindows > 0 && r.ROMReads <= 0:
		return fmt.Errorf("rom_reads = %d over %d ROM windows, want > 0 (a row with ROM that reads none rode the wrong program)",
			r.ROMReads, r.ROMWindows)
	case r.Validated <= 0:
		return fmt.Errorf("validated = %d, want > 0 (no differential evidence against curve.ScalarMult)", r.Validated)
	}
	return nil
}

// Sched is the -exp sched entry: one row per program of core's table.
type Sched struct {
	Programs []SchedRow `json:"programs"`
}

// Check validates every row and the one rule between rows: the
// fixed-base comb beats the variable-base list schedule it displaces,
// or the request-class routing is pure overhead.
func (s *Sched) Check() error {
	if len(s.Programs) == 0 {
		return fmt.Errorf("no programs")
	}
	rows := map[string]*SchedRow{}
	for i := range s.Programs {
		r := &s.Programs[i]
		if _, dup := rows[r.Program]; dup || r.Program == "" {
			return fmt.Errorf("programs[%d]: program name %q empty or repeated", i, r.Program)
		}
		if err := r.Check(); err != nil {
			return fmt.Errorf("%s: %w", r.Program, err)
		}
		rows[r.Program] = r
	}
	if fb, ok := rows["fixedbase"]; ok {
		vb, ok := rows["variablebase"]
		if !ok {
			return fmt.Errorf("fixedbase row without the variablebase row it must beat")
		}
		if fb.Portfolio.Makespan >= vb.Single.Makespan {
			return fmt.Errorf("comb makespan %d does not beat the variable-base list schedule %d — the request-class routing is pure overhead",
				fb.Portfolio.Makespan, vb.Single.Makespan)
		}
	}
	return nil
}

// Serve is the fourq-loadgen entry: an open-loop run against a live
// fourq-serve.
type Serve struct {
	Target          string         `json:"target"`
	OfferedRPS      float64        `json:"offered_rps"`
	DurationSeconds float64        `json:"duration_seconds"`
	Mix             string         `json:"mix"`
	BatchSize       int            `json:"batch_size"`
	Requests        map[string]int `json:"requests"`
	// ShedRate is clean 503s per offered request.
	ShedRate        float64     `json:"shed_rate"`
	LatencyMS       Percentiles `json:"latency_ms"`
	GoodputRPS      float64     `json:"goodput_rps"`
	GoodputSMPerSec float64     `json:"goodput_sm_per_sec"`
}

// Percentiles of successful requests' latency.
type Percentiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Check requires reconciled tallies with at least one success, and the
// latency percentiles and shed rate: a service benchmark quoting
// goodput without what latency the survivors paid, or how much load
// was refused, is cherry-picking.
func (s *Serve) Check() error {
	if s.OfferedRPS <= 0 {
		return fmt.Errorf("offered_rps = %v, want > 0", s.OfferedRPS)
	}
	if s.DurationSeconds <= 0 {
		return fmt.Errorf("duration_seconds = %v, want > 0", s.DurationSeconds)
	}
	total, ok := s.Requests["total"], s.Requests["ok"]
	if total <= 0 {
		return fmt.Errorf("requests.total = %d, want > 0", total)
	}
	if ok <= 0 {
		return fmt.Errorf("requests.ok = %d — a run with no successful request is not a measurement", ok)
	}
	if sum := ok + s.Requests["shed"] + s.Requests["rate_limited"] + s.Requests["failed"]; sum != total {
		return fmt.Errorf("request tallies sum to %d, want total = %d", sum, total)
	}
	if s.ShedRate < 0 || s.ShedRate > 1 {
		return fmt.Errorf("shed_rate = %v, want in [0, 1]", s.ShedRate)
	}
	prev := 0.0
	for _, q := range []struct {
		name string
		v    float64
	}{{"p50", s.LatencyMS.P50}, {"p95", s.LatencyMS.P95}, {"p99", s.LatencyMS.P99}} {
		if q.v <= 0 {
			return fmt.Errorf("latency_ms.%s = %v, want > 0", q.name, q.v)
		}
		if q.v < prev {
			return fmt.Errorf("latency_ms.%s = %v below a lower percentile (%v)", q.name, q.v, prev)
		}
		prev = q.v
	}
	if s.GoodputRPS <= 0 {
		return fmt.Errorf("goodput_rps = %v, want > 0", s.GoodputRPS)
	}
	if s.GoodputSMPerSec <= 0 {
		return fmt.Errorf("goodput_sm_per_sec = %v, want > 0", s.GoodputSMPerSec)
	}
	return nil
}

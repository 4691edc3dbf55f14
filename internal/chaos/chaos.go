// Package chaos is the deterministic failure-campaign harness for the
// serving stack: it drives a real serve.Server (straight through its
// Handler — no network, no listener flake) through seed-replayable
// scenarios that compose the injectable failure surfaces built in the
// lower layers — fault.Injector-poisoned workers behind a fault.Gate,
// a stalled shard wedged in the engine's ExecHook, clock skew on the
// serving Clock, saturation bursts past the shed high-water mark, and
// graceful drain racing an active fault — and asserts the service
// invariants on every one:
//
//   - exactly-once answers: every request gets exactly one response,
//     reconciled against the server's own serve.ok tally (no lost, no
//     duplicated answers);
//   - zero mis-answers: every 200 is checked against a software oracle
//     computed before the campaign starts;
//   - shedding strictly before engine backpressure: serve.engine_rejected
//     stays zero through every overload and failure;
//   - bounded recovery: after the fault window closes, shard health
//     returns above threshold within a bound, and post-fault goodput
//     recovers to ≥ 90% of the pre-fault phase.
//
// Campaigns are replayable from their seed: the workload (scalars,
// keys, messages, traffic mix) is derived from Options.Seed, and each
// scenario folds its name into the stream so scenario selection does
// not shift another scenario's workload. Results aggregate into a
// Report, the fourq-bench/v1 "chaos" experiment; scripts/benchcheck
// runs its Check on fresh campaigns and on the committed
// BENCH_chaos.json.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Options sizes a campaign.
type Options struct {
	// Seed derives every scenario's workload and fault placement. The
	// same seed replays the same campaign.
	Seed int64
	// Scenarios filters which scenarios run (by Name). Empty runs all.
	Scenarios []string
	// Requests is the per-measured-phase request count. Defaults to 60.
	Requests int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// PhaseStats is one traffic phase's client-side tally. Goodput is
// successful requests over the phase's wall time.
type PhaseStats struct {
	Requests    int     `json:"requests"`
	OK          int     `json:"ok"`
	Shed        int     `json:"shed"`
	RateLimited int     `json:"rate_limited"`
	Canceled    int     `json:"canceled"`
	Drained     int     `json:"drained"`
	Failed      int     `json:"failed"`
	GoodputRPS  float64 `json:"goodput_rps"`
}

// ScenarioResult is one scenario's outcome: per-phase tallies, the
// reconciled invariant counters, and the recovery measurements.
type ScenarioResult struct {
	Name           string                `json:"name"`
	Seed           int64                 `json:"seed"`
	FaultsInjected int64                 `json:"faults_injected"`
	Phases         map[string]PhaseStats `json:"phases"`
	Requests       map[string]int        `json:"requests"`
	MisAnswered    int                   `json:"mis_answered"`
	Lost           int                   `json:"lost"`
	Duplicates     int64                 `json:"duplicates"`
	EngineRejected int64                 `json:"engine_rejected"`
	ShardsEjected  int64                 `json:"shards_ejected"`
	ShardsRebuilt  int64                 `json:"shards_rebuilt"`
	HedgeWins      int64                 `json:"hedge_wins"`
	// RecoveryMS is how long after the fault cleared every shard scored
	// healthy again (absent when the scenario ends inside the fault,
	// e.g. drain-during-failure).
	RecoveryMS *float64 `json:"recovery_ms,omitempty"`
	// RecoveryRatio is post-fault goodput over pre-fault goodput.
	RecoveryRatio *float64 `json:"recovery_ratio,omitempty"`
	Violations    []string `json:"violations"`
}

// Report is the campaign aggregate, embedded as the "chaos" experiment
// of a fourq-bench/v1 document (see Check).
type Report struct {
	Seed             int64            `json:"seed"`
	Requests         int              `json:"requests_per_phase"`
	Scenarios        []ScenarioResult `json:"scenarios"`
	FaultsInjected   int64            `json:"faults_injected"`
	MisAnswered      int              `json:"mis_answered"`
	Lost             int              `json:"lost"`
	Duplicates       int64            `json:"duplicates"`
	EngineRejected   int64            `json:"engine_rejected"`
	MinRecoveryRatio *float64         `json:"min_recovery_ratio,omitempty"`
	Violations       []string         `json:"violations"`
}

// Check validates a recorded campaign: it injected faults, every
// scenario carries reconciled tallies, and the recorded invariants
// hold — zero lost, duplicated or mis-answered requests, zero engine
// rejections, recovery ratios at or above the floor, and no violation.
// A report whose own numbers breach an invariant is a recording bug,
// not evidence of robustness.
func (r *Report) Check() error {
	if r.Requests <= 0 {
		return fmt.Errorf("requests_per_phase = %d, want > 0", r.Requests)
	}
	if len(r.Scenarios) == 0 {
		return fmt.Errorf("no scenarios recorded")
	}
	if r.FaultsInjected == 0 {
		return fmt.Errorf("campaign injected zero faults — nothing was tested")
	}
	if len(r.Violations) > 0 {
		return fmt.Errorf("report records %d invariant violation(s): %s",
			len(r.Violations), strings.Join(r.Violations, "; "))
	}
	var faults int64
	ratios := 0
	for _, sc := range r.Scenarios {
		q := sc.Requests
		switch {
		case sc.Name == "":
			return fmt.Errorf("scenario with no name")
		case sc.FaultsInjected == 0:
			return fmt.Errorf("scenario %s injected zero faults", sc.Name)
		case q["total"] <= 0:
			return fmt.Errorf("scenario %s issued no requests", sc.Name)
		case q["ok"] <= 0:
			return fmt.Errorf("scenario %s answered no request successfully", sc.Name)
		case q["ok"]+q["shed"]+q["rate_limited"]+q["canceled"]+q["drained"]+q["failed"] != q["total"]:
			return fmt.Errorf("scenario %s tallies do not sum to total = %d", sc.Name, q["total"])
		case sc.Lost != 0 || sc.Duplicates != 0:
			return fmt.Errorf("scenario %s lost=%d duplicates=%d, want 0/0 (exactly-once broken)",
				sc.Name, sc.Lost, sc.Duplicates)
		case sc.MisAnswered != 0:
			return fmt.Errorf("scenario %s mis_answered = %d, want 0", sc.Name, sc.MisAnswered)
		case sc.EngineRejected != 0:
			return fmt.Errorf("scenario %s engine_rejected = %d, want 0 (shed must precede backpressure)",
				sc.Name, sc.EngineRejected)
		case len(sc.Violations) > 0:
			return fmt.Errorf("scenario %s records violations: %s", sc.Name, strings.Join(sc.Violations, "; "))
		}
		if sc.RecoveryRatio != nil {
			ratios++
			if *sc.RecoveryRatio < recoveryFloor {
				return fmt.Errorf("scenario %s recovery_ratio = %.2f, below the %.2f floor",
					sc.Name, *sc.RecoveryRatio, recoveryFloor)
			}
		}
		faults += sc.FaultsInjected
	}
	if faults != r.FaultsInjected {
		return fmt.Errorf("per-scenario faults sum to %d, campaign total says %d", faults, r.FaultsInjected)
	}
	if ratios == 0 {
		return fmt.Errorf("no scenario measured a recovery ratio")
	}
	if r.MinRecoveryRatio == nil {
		return fmt.Errorf("min_recovery_ratio missing")
	}
	if *r.MinRecoveryRatio < recoveryFloor {
		return fmt.Errorf("min_recovery_ratio = %.2f, below the %.2f floor", *r.MinRecoveryRatio, recoveryFloor)
	}
	return nil
}

// scenario is one named campaign entry.
type scenario struct {
	name string
	desc string
	run  func(h *harness)
}

// scenarios returns the full catalog in its canonical order.
func scenarios() []scenario {
	return []scenario{
		{"faulty-shard", "persistent datapath fault on one shard: ladder, ejection, rebuild", runFaultyShard},
		{"stalled-shard", "one shard wedged in ExecHook: hedging and queue-age ejection", runStalledShard},
		{"clock-skew", "serving clock jumps forward then backward under tenant load", runClockSkew},
		{"saturation", "offered load far past the shed high-water mark", runSaturation},
		{"drain-during-failure", "graceful drain racing an active shard fault", runDrainDuringFailure},
	}
}

// ScenarioNames lists the catalog (for -scenarios flag help).
func ScenarioNames() []string {
	var names []string
	for _, sc := range scenarios() {
		names = append(names, sc.name)
	}
	return names
}

// recoveryBound is how long a scenario may take, after its fault
// clears, to score every shard healthy again.
const recoveryBound = 10 * time.Second

// recoveryFloor is the minimum post-fault/pre-fault goodput ratio.
const recoveryFloor = 0.9

// Run executes the campaign and returns the aggregated report. A
// non-nil error means the harness itself failed; invariant breaches are
// reported in Report.Violations, not as errors.
func Run(opts Options) (*Report, error) {
	if opts.Requests <= 0 {
		opts.Requests = 60
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	want := make(map[string]bool, len(opts.Scenarios))
	for _, name := range opts.Scenarios {
		want[name] = true
	}
	catalog := scenarios()
	if len(want) > 0 {
		known := make(map[string]bool, len(catalog))
		for _, sc := range catalog {
			known[sc.name] = true
		}
		var unknown []string
		for name := range want {
			if !known[name] {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			return nil, fmt.Errorf("chaos: unknown scenarios %v (have %v)", unknown, ScenarioNames())
		}
	}

	rep := &Report{Seed: opts.Seed, Requests: opts.Requests}
	for _, sc := range catalog {
		if len(want) > 0 && !want[sc.name] {
			continue
		}
		opts.Logf("chaos: scenario %s: %s", sc.name, sc.desc)
		h, err := newHarness(sc.name, opts)
		if err != nil {
			return nil, fmt.Errorf("chaos: scenario %s: %w", sc.name, err)
		}
		sc.run(h)
		res := h.finish()
		rep.Scenarios = append(rep.Scenarios, res)
		rep.FaultsInjected += res.FaultsInjected
		rep.MisAnswered += res.MisAnswered
		rep.Lost += res.Lost
		rep.Duplicates += res.Duplicates
		rep.EngineRejected += res.EngineRejected
		if res.RecoveryRatio != nil {
			if rep.MinRecoveryRatio == nil || *res.RecoveryRatio < *rep.MinRecoveryRatio {
				r := *res.RecoveryRatio
				rep.MinRecoveryRatio = &r
			}
		}
		for _, v := range res.Violations {
			rep.Violations = append(rep.Violations, sc.name+": "+v)
		}
		opts.Logf("chaos: scenario %s: faults=%d ok=%d violations=%d",
			sc.name, res.FaultsInjected, res.Requests["ok"], len(res.Violations))
	}
	if len(rep.Scenarios) == 0 {
		return nil, fmt.Errorf("chaos: no scenarios selected")
	}
	return rep, nil
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchreport"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/engine"
	"repro/internal/scalar"
)

// engineLaneWidth is the coalescing width of the batch experiment's
// engine point (the serving-layer counterpart of the width-4 lockstep
// sweep point the acceptance gate watches).
const engineLaneWidth = 4

// batch measures the lockstep lane-batched execution path: host SM/s of
// core.Executor.ScalarMultLanes across the configured lane widths
// (default 1,2,4,8), then the engine's coalescing path at lane width
// 4. Every configuration is oracle-verified against the functional
// curve model before any timing starts, so a rate is only ever reported
// for bit-correct outputs.
func (b *bench) batch() error {
	p, err := b.processor()
	if err != nil {
		return err
	}
	res := benchreport.Batch{NumCPU: runtime.NumCPU(), VerifiedAll: true}

	// Deterministic operand stream (splitmix64), independent of lane
	// width so every point multiplies comparable inputs. Half the lanes
	// use variable bases to exercise the general bind path.
	s := uint64(0xba7c4)
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	randScalar := func() scalar.Scalar {
		return scalar.Scalar{next(), next(), next(), next()}
	}

	ex := p.NewExecutor()
	fmt.Printf("%-8s %-10s %-9s %s\n", "width", "SM/s", "speedup", "oracle")
	for _, w := range b.lanes {
		ks := make([]scalar.Scalar, w)
		bases := make([]curve.Affine, w)
		outs := make([]curve.Affine, w)
		errs := make([]error, w)
		for l := range ks {
			ks[l] = randScalar()
			bases[l] = curve.GeneratorAffine()
			if l%2 == 1 {
				bases[l] = curve.ScalarMultBinary(randScalar(), curve.Generator()).Affine()
			}
		}
		// Oracle pass before the clock starts: every lane bit-exact
		// against the functional model, or the experiment fails.
		if _, err := ex.ScalarMultLanes(ks, bases, outs, errs); err != nil {
			return fmt.Errorf("width %d: %w", w, err)
		}
		for l := range ks {
			if errs[l] != nil {
				return fmt.Errorf("width %d lane %d: %w", w, l, errs[l])
			}
			want := curve.ScalarMult(ks[l], curve.FromAffine(bases[l])).Affine()
			if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
				return fmt.Errorf("width %d lane %d: lockstep output disagrees with the curve oracle", w, l)
			}
		}
		rate, err := measureRate(func() error {
			if _, err := ex.ScalarMultLanes(ks, bases, outs, errs); err != nil {
				return err
			}
			for l := range errs {
				if errs[l] != nil {
					return errs[l]
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("width %d: %w", w, err)
		}
		pt := benchreport.LanePoint{Width: w, SMPerSec: rate * float64(w), OracleOK: true}
		if len(res.LaneWidths) == 0 {
			pt.Speedup = 1
		} else {
			pt.Speedup = pt.SMPerSec / res.LaneWidths[0].SMPerSec
		}
		res.LaneWidths = append(res.LaneWidths, pt)
		if pt.SMPerSec > res.PeakLaneSMPerSec {
			res.PeakLaneSMPerSec = pt.SMPerSec
		}
		fmt.Printf("%-8d %-10.0f %-9.2f %v\n", w, pt.SMPerSec, pt.Speedup, pt.OracleOK)
	}
	for i := 1; i < len(res.LaneWidths); i++ {
		if cur, prev := res.LaneWidths[i], res.LaneWidths[i-1]; cur.SMPerSec < prev.SMPerSec {
			res.Note = fmt.Sprintf("non-monotone sweep: width %d measured %.0f SM/s below width %d's %.0f (host scheduling noise; amortization gain is per-op, see docs/PERF.md)",
				cur.Width, cur.SMPerSec, prev.Width, prev.SMPerSec)
			fmt.Println("note:", res.Note)
		}
	}

	// Engine point: the same lockstep path reached through request
	// coalescing, with the engine's oracle (core.ValidateOracle) on every
	// result.
	const sms = 32
	e := engine.NewWithProcessor(p, engine.Options{
		Workers:    1,
		QueueDepth: sms,
		LaneWidth:  engineLaneWidth,
		Validate:   core.ValidateOracle,
	})
	reqs := make([]engine.Request, sms)
	for i := range reqs {
		reqs[i].K = randScalar()
	}
	t0 := time.Now()
	out, err := e.SubmitBatch(context.Background(), reqs)
	dt := time.Since(t0)
	e.Close()
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	for i, r := range out {
		if r.Err != nil {
			return fmt.Errorf("engine request %d: %w", i, r.Err)
		}
	}
	snap := e.Metrics().Snapshot()
	ep := benchreport.BatchEnginePoint{
		LaneWidth: engineLaneWidth,
		Workers:   1,
		SMs:       sms,
		SMPerSec:  float64(sms) / dt.Seconds(),
		LaneRuns:  snap.Counters["engine.lane_runs"],
		LaneLanes: snap.Counters["engine.lane_lanes"],
		OracleOK:  true,
	}
	if ep.LaneRuns < 1 || ep.LaneLanes < int64(engineLaneWidth) {
		return fmt.Errorf("engine: lockstep path unused (lane_runs=%d lane_lanes=%d)", ep.LaneRuns, ep.LaneLanes)
	}
	res.Engine = &ep
	fmt.Printf("engine (workers=1, lane width %d): %.0f SM/s over %d SMs, %d lockstep runs covering %d lanes\n",
		ep.LaneWidth, ep.SMPerSec, ep.SMs, ep.LaneRuns, ep.LaneLanes)

	b.rep.Add("batch", res)
	return nil
}

// parseLanes parses the -lanes flag: a comma-separated ascending list
// of lockstep widths for the batch experiment.
func parseLanes(spec string) ([]int, error) {
	var lanes []int
	for _, f := range strings.Split(spec, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 || w > 64 {
			return nil, fmt.Errorf("invalid lane width %q (want 1..64)", strings.TrimSpace(f))
		}
		if len(lanes) > 0 && w <= lanes[len(lanes)-1] {
			return nil, fmt.Errorf("lane widths must be strictly ascending, got %q", spec)
		}
		lanes = append(lanes, w)
	}
	return lanes, nil
}

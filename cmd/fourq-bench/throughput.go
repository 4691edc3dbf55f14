package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/benchreport"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scalar"
)

// throughput measures the batch engine's scalar-multiplication rate
// versus worker-pool size (E8): the serving-layer answer to the paper's
// single-op latency headline. All engines share one cached processor
// (the build is paid once), each worker owns an independent RTL
// executor, and every produced point is verified against the functional
// model oracle before it counts.
func (b *bench) throughput() error {
	const smsPerPoint = 24

	cpus := runtime.NumCPU()
	seen := map[int]bool{}
	var counts []int
	for _, w := range []int{1, 2, 4, cpus} {
		if w >= 1 && !seen[w] {
			seen[w] = true
			counts = append(counts, w)
		}
	}
	sort.Ints(counts)

	// One shared processor for every engine below: the first engine.New
	// pays the trace->schedule->emit build, the rest hit the cache. The
	// -sched selection flows through b.config() so the measured SM/s run
	// the solver under test.
	proc, err := engine.CachedProcessor(b.config())
	if err != nil {
		return err
	}
	b.proc = proc // later experiments reuse it too

	// Deterministic request stream (splitmix64), same for every count.
	reqs := make([]engine.Request, smsPerPoint)
	s := uint64(0x5eed)
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	for i := range reqs {
		reqs[i].K = scalar.Scalar{next(), next(), next(), next()}
	}

	res := benchreport.Throughput{
		NumCPU:         cpus,
		SMsPerPoint:    smsPerPoint,
		BuildShared:    true,
		QueueDepth:     2 * smsPerPoint,
		VerifiedAll:    true,
		ScheduleCycles: proc.CyclesFunctional(),
		Solver:         proc.ScheduleResult().Solver,
	}
	ctx := context.Background()
	fmt.Printf("schedule: %d cycles/SM (solver %s)\n", res.ScheduleCycles, res.Solver)
	fmt.Printf("%-8s %-8s %-10s %-10s %-9s %s\n", "workers", "SMs", "wall[ms]", "SM/s", "speedup", "oracle")
	for _, w := range counts {
		e := engine.NewWithProcessor(proc, engine.Options{
			Workers:    w,
			QueueDepth: res.QueueDepth,
			Validate:   core.ValidateOracle,
		})
		t0 := time.Now()
		out, err := e.SubmitBatch(ctx, reqs)
		dt := time.Since(t0)
		e.Close()
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		oracleOK := true
		for i, r := range out {
			if r.Err != nil {
				return fmt.Errorf("workers=%d request %d: %w", w, i, r.Err)
			}
		}
		snap := e.Metrics().Snapshot()
		if snap.Counters["engine.failed"] != 0 || snap.Counters["engine.completed"] != int64(smsPerPoint) {
			return fmt.Errorf("workers=%d: telemetry does not reconcile: completed=%d failed=%d",
				w, snap.Counters["engine.completed"], snap.Counters["engine.failed"])
		}
		pt := benchreport.ThroughputPoint{
			Workers:  w,
			SMs:      smsPerPoint,
			Seconds:  dt.Seconds(),
			SMPerSec: float64(smsPerPoint) / dt.Seconds(),
			OracleOK: oracleOK,
		}
		if len(res.Points) == 0 {
			pt.Speedup = 1
		} else {
			pt.Speedup = pt.SMPerSec / res.Points[0].SMPerSec
		}
		res.Points = append(res.Points, pt)
		if pt.Speedup > res.MaxSpeedup {
			res.MaxSpeedup = pt.Speedup
		}
		fmt.Printf("%-8d %-8d %-10.1f %-10.0f %-9.2f %v\n",
			w, pt.SMs, dt.Seconds()*1e3, pt.SMPerSec, pt.Speedup, pt.OracleOK)
	}
	res.EngineCached = engine.CacheSize()
	fmt.Printf("\nall %d results per point oracle-verified against the functional model;\n", smsPerPoint)
	fmt.Printf("processor built once and shared across %d engines (cache size %d)\n", len(counts), res.EngineCached)
	if cpus == 1 {
		fmt.Println("note: single-CPU host — worker scaling cannot exceed 1x here")
	}
	b.rep.Add("throughput", res)
	return nil
}

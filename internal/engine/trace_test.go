package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/fault"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/telemetry"
)

// spanEvents indexes a recorder's output by event name.
func spanEvents(rec *telemetry.Recorder) map[string][]telemetry.TraceEvent {
	byName := map[string][]telemetry.TraceEvent{}
	for _, ev := range rec.Events() {
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	return byName
}

// TestRequestSpanEndToEnd submits one request through a traced engine
// and checks the full lifecycle chain lands on the recorder — admit,
// queue_wait, execute, validate, request, deliver — all tagged with the
// same request id, plus the always-on per-stage histograms.
func TestRequestSpanEndToEnd(t *testing.T) {
	rec := telemetry.NewRecorder()
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(testProcessor(t), Options{
		Workers: 1, Registry: reg, Trace: rec, TraceSampleRate: 1,
	})
	defer e.Close()

	k := core.DefaultTraceScalar()
	r, err := e.Submit(context.Background(), Request{K: k})
	if err != nil || r.Err != nil {
		t.Fatalf("submit: %v / %v", err, r.Err)
	}

	byName := spanEvents(rec)
	for _, stage := range []string{"admit", "queue_wait", "execute", "validate", "request", "deliver"} {
		evs := byName[stage]
		if len(evs) != 1 {
			t.Fatalf("stage %q: %d events, want exactly 1", stage, len(evs))
		}
		if got := evs[0].Args["req"]; got != uint64(1) {
			t.Fatalf("stage %q: req arg = %v, want 1", stage, got)
		}
	}
	ex := byName["execute"][0]
	if ex.Args["backend"] != "rtl" || ex.Args["attempt"] != 1 || ex.Args["ok"] != true {
		t.Fatalf("execute args = %v", ex.Args)
	}
	if v := byName["validate"][0]; v.Args["ok"] != true {
		t.Fatalf("validate args = %v", v.Args)
	}
	req := byName["request"][0]
	if req.Args["backend"] != "rtl" || req.Args["ok"] != true {
		t.Fatalf("request args = %v", req.Args)
	}
	// The end-to-end slice contains the queue_wait and execute stages.
	qw, exq := byName["queue_wait"][0], byName["execute"][0]
	if qw.TS < req.TS || exq.TS+exq.Dur > req.TS+req.Dur {
		t.Fatal("stage slices fall outside the end-to-end request slice")
	}
	// Tracks are named for the viewer: queue track + one per worker.
	if len(byName["thread_name"]) != 2 {
		t.Fatalf("thread_name metadata events = %d, want 2", len(byName["thread_name"]))
	}

	snap := reg.Snapshot()
	for _, h := range []string{"engine.queue_wait_seconds", "engine.execute_seconds", "engine.latency_seconds"} {
		if got := snap.Histograms[h].Count; got != 1 {
			t.Fatalf("%s count = %d, want 1", h, got)
		}
	}

	// The flight ring saw the same lifecycle.
	kinds := map[string]bool{}
	for _, ev := range e.Flight().Events() {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{"admit", "execute", "deliver"} {
		if !kinds[k] {
			t.Fatalf("flight ring missing %q event (has %v)", k, kinds)
		}
	}
}

// TestTraceSampling: rate 0.5 traces every second request,
// deterministically.
func TestTraceSampling(t *testing.T) {
	rec := telemetry.NewRecorder()
	e := NewWithProcessor(testProcessor(t), Options{
		Workers: 1, Trace: rec, TraceSampleRate: 0.5,
	})
	defer e.Close()
	ctx := context.Background()
	for i := 1; i <= 8; i++ {
		if _, err := e.Submit(ctx, Request{K: scalar.Scalar{uint64(i), 2, 3, 4}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(spanEvents(rec)["request"]); got != 4 {
		t.Fatalf("rate 0.5 over 8 requests traced %d, want 4", got)
	}
}

// TestSpanLaneBatch drives the coalescing path under tracing: a full
// batch produces lane_fill slices and one lockstep execute slice per
// lane, all attempt #1.
func TestSpanLaneBatch(t *testing.T) {
	rec := telemetry.NewRecorder()
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(testProcessor(t), Options{
		Workers: 1, Registry: reg, Trace: rec, TraceSampleRate: 1,
		LaneWidth: 2,
	})
	defer e.Close()

	reqs := []Request{{K: scalar.Scalar{1, 2, 3, 4}}, {K: scalar.Scalar{5, 6, 7, 8}}}
	rs, err := e.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		want := oracle(reqs[i].K, curve.Affine{})
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("lane %d wrong answer", i)
		}
	}
	byName := spanEvents(rec)
	if got := len(byName["lane_fill"]); got != 2 {
		t.Fatalf("lane_fill slices = %d, want 2", got)
	}
	if got := len(byName["execute"]); got != 2 {
		t.Fatalf("execute slices = %d, want 2", got)
	}
	for _, ev := range byName["execute"] {
		if ev.Args["attempt"] != 1 || ev.Args["backend"] != "rtl" {
			t.Fatalf("lockstep execute args = %v", ev.Args)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["engine.lane_fill_ratio"]; got != 1 {
		t.Fatalf("lane_fill_ratio = %v, want 1 (full batch)", got)
	}
	if got := snap.Histograms["engine.lane_fill_seconds"].Count; got < 1 {
		t.Fatalf("lane_fill_seconds count = %d, want >= 1", got)
	}
}

// TestLaneFillLoneRequest: a lone request on a wide-lane engine
// dispatches at once — the worker never sleeps on the clock waiting for
// lane-mates — and the metrics record the 1-of-4 batch.
func TestLaneFillLoneRequest(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := newFakeClock()
	e := NewWithProcessor(testProcessor(t), Options{
		Workers: 1, Registry: reg, Clock: clk, LaneWidth: 4,
	})
	defer e.Close()

	k := core.DefaultTraceScalar()
	r, err := e.Submit(context.Background(), Request{K: k})
	if err != nil || r.Backend != BackendRTL {
		t.Fatalf("submit: %v, backend %v", err, r.Backend)
	}
	if want := oracle(k, curve.Affine{}); !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
		t.Fatal("lone coalesced request returned a wrong point")
	}
	if s := clk.Sleeps(); len(s) != 0 {
		t.Fatalf("lone request slept %v on the clock, want no sleep", s)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["engine.lane_fill_ratio"]; got != 0.25 {
		t.Fatalf("lane_fill_ratio = %v, want 0.25 (1 of 4 lanes)", got)
	}
	if got := snap.Histograms["engine.lane_fill_seconds"].Count; got != 1 {
		t.Fatalf("lane_fill_seconds count = %d, want 1 (one dispatch)", got)
	}
}

// TestFlightDumpOnBreakerTrip forces the breaker open under a sustained
// stuck-at fault and checks the anomaly dump machinery: the trip
// auto-snapshots the flight ring, and the dump holds the failing
// request's validation_failed events — the post-mortem story, captured
// at the moment of degradation with no tracing enabled.
func TestFlightDumpOnBreakerTrip(t *testing.T) {
	p := testProcessor(t)
	reg := telemetry.NewRegistry()
	clk := newFakeClock()
	e := NewWithProcessor(p, Options{
		Workers:          1,
		Registry:         reg,
		Clock:            clk,
		MaxAttempts:      2,
		QuarantineAfter:  -1,
		BreakerWindow:    4,
		BreakerThreshold: 1.0,
		BreakerCooldown:  time.Hour,
		Injector: func(int) rtl.Injector {
			return fault.NewInjector([]fault.Fault{stuckMulFault()}, reg)
		},
	})
	defer e.Close()

	ctx := context.Background()
	for i := 1; i <= 4; i++ {
		k := scalar.Scalar{uint64(i), uint64(i) * 0x9E3779B97F4A7C15, 3, uint64(i)}
		if r, err := e.Submit(ctx, Request{K: k}); err != nil || r.Err != nil {
			t.Fatalf("submit %d: %v / %v", i, err, r.Err)
		}
	}
	if got := reg.Snapshot().Counters["engine.breaker_opened"]; got != 1 {
		t.Fatalf("engine.breaker_opened = %d, want 1", got)
	}

	var trip *telemetry.FlightDump
	for i, d := range e.Flight().Dumps() {
		if d.Reason == "breaker_open" {
			trip = &e.Flight().Dumps()[i]
		}
	}
	if trip == nil {
		t.Fatal("no breaker_open dump in the flight recorder")
	}
	// The dump carries the events that tripped the breaker: the failing
	// requests' detected faults (request 2's second attempt is the 4th
	// fault in the window) and the trip marker itself.
	var fails, opens int
	var sawReq2 bool
	for _, ev := range trip.Events {
		switch ev.Kind {
		case "validation_failed":
			fails++
			if ev.Req == 2 {
				sawReq2 = true
			}
		case "breaker_open":
			opens++
		}
	}
	if fails != 4 || opens != 1 || !sawReq2 {
		t.Fatalf("trip dump: %d validation_failed (want 4), %d breaker_open (want 1), req2 seen %v",
			fails, opens, sawReq2)
	}
	// Dump metadata identifies the configuration that tripped.
	if trip.Meta["breaker_window"] != 4 || trip.Meta["workers"] != 1 {
		t.Fatalf("trip dump meta = %v", trip.Meta)
	}
}

// TestFlightDumpOnQuarantine: a worker that keeps failing is
// quarantined, and the quarantine dump holds its failing attempts.
func TestFlightDumpOnQuarantine(t *testing.T) {
	p := testProcessor(t)
	reg := telemetry.NewRegistry()
	clk := newFakeClock()
	e := NewWithProcessor(p, Options{
		Workers:         1,
		Registry:        reg,
		Clock:           clk,
		MaxAttempts:     3,
		QuarantineAfter: 2,
		BreakerWindow:   -1,
		Injector: func(int) rtl.Injector {
			return fault.NewInjector([]fault.Fault{stuckMulFault()}, reg)
		},
	})
	defer e.Close()

	k := core.DefaultTraceScalar()
	r, err := e.Submit(context.Background(), Request{K: k})
	if err != nil || r.Err != nil {
		t.Fatalf("submit: %v / %v", err, r.Err)
	}
	if r.Backend != BackendSoftware {
		t.Fatalf("backend = %v, want software after quarantine", r.Backend)
	}

	dumps := e.Flight().Dumps()
	var q *telemetry.FlightDump
	for i, d := range dumps {
		if d.Reason == "worker_quarantined" {
			q = &dumps[i]
		}
	}
	if q == nil {
		t.Fatalf("no worker_quarantined dump (reasons: %v)", dumps)
	}
	var fails int
	for _, ev := range q.Events {
		if ev.Kind == "validation_failed" && ev.Req == 1 {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("quarantine dump holds %d failing attempts of req 1, want 2", fails)
	}

	snap := reg.Snapshot()
	if got := snap.Gauges["engine.workers_active"]; got != 0 {
		t.Fatalf("workers_active = %v, want 0", got)
	}
	if got := snap.Gauges["engine.worker_0_state"]; got != 1 {
		t.Fatalf("worker_0_state = %v, want 1 (quarantined)", got)
	}
}

// TestTracingDisabledZeroAlloc proves the disabled tracing path costs
// nothing: with Options.Trace nil, the span helpers allocate zero bytes
// per request, preserving the engine hot path (and the executor's
// zero-alloc guarantee, checked in internal/core, is untouched because
// tracing never reaches into the datapath).
func TestTracingDisabledZeroAlloc(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	j := &job{id: 1}
	allocs := testing.AllocsPerRun(100, func() {
		j.span = e.newSpan()
		e.spanAdmit(j)
		e.claimJob(j)
		e.spanLaneFill(j, 0, 1)
		e.spanExecute(j, 0, 1, BackendRTL, 0, true)
		e.spanValidate(j, 0, true)
		e.spanDeliver(j, Result{})
	})
	if allocs != 0 {
		t.Fatalf("tracing-disabled span path allocates %v/op, want 0", allocs)
	}
}

package engine

import (
	"context"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/fault"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/telemetry"
)

func randReq(rng *mrand.Rand) Request {
	var k scalar.Scalar
	for i := range k {
		k[i] = rng.Uint64()
	}
	req := Request{K: k}
	if rng.Intn(2) == 1 {
		var b scalar.Scalar
		for i := range b {
			b[i] = rng.Uint64()
		}
		req.Base = curve.ScalarMultBinary(b, curve.Generator()).Affine()
	}
	return req
}

func wantPoint(req Request) curve.Affine {
	base := req.Base
	if base == (curve.Affine{}) {
		base = curve.GeneratorAffine()
	}
	return curve.ScalarMult(req.K, curve.FromAffine(base)).Affine()
}

// TestEngineCoalescing drives a coalescing engine (LaneWidth 4) with a
// mixed fixed/variable-base load: every result must be correct and RTL-
// backed, the lockstep path must actually be taken, and the telemetry
// must reconcile exactly after drain.
func TestEngineCoalescing(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(testProcessor(t), Options{
		Workers: 2, QueueDepth: 64, LaneWidth: 4, Registry: reg,
	})
	rng := mrand.New(mrand.NewSource(31415))
	const jobs = 24
	reqs := make([]Request, jobs)
	for i := range reqs {
		reqs[i] = randReq(rng)
	}
	results, err := e.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		want := wantPoint(reqs[i])
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("request %d: wrong point", i)
		}
		if r.Backend != BackendRTL || r.Attempts != 1 {
			t.Fatalf("request %d: backend %v attempts %d, want RTL/1", i, r.Backend, r.Attempts)
		}
	}
	e.Close()
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if got := get("engine.submitted"); got != jobs {
		t.Fatalf("submitted = %d, want %d", got, jobs)
	}
	if get("engine.submitted") != get("engine.completed")+get("engine.canceled") {
		t.Fatal("telemetry does not reconcile: submitted != completed + canceled")
	}
	laneRuns, laneLanes := get("engine.lane_runs"), get("engine.lane_lanes")
	if laneRuns < 1 || laneLanes < 2 {
		t.Fatalf("lockstep path unused: lane_runs=%d lane_lanes=%d", laneRuns, laneLanes)
	}
	if laneLanes > jobs {
		t.Fatalf("lane_lanes=%d exceeds submitted jobs %d", laneLanes, jobs)
	}
	if v := reg.Gauge("engine.in_flight").Value(); v != 0 {
		t.Fatalf("in_flight = %v after drain, want 0", v)
	}
}

// TestEngineWidthOne pins the degenerate batch: at LaneWidth 1 every
// fault-free request is one lockstep pass of one lane, counted once in
// engine.lane_runs and engine.lane_lanes, ExecHook fires once per
// claimed job, and each result carries its program's compiled Stats.
func TestEngineWidthOne(t *testing.T) {
	p := testProcessor(t)
	reg := telemetry.NewRegistry()
	var hooks atomic.Int64
	e := NewWithProcessor(p, Options{
		Workers: 2, QueueDepth: 16, Registry: reg,
		ExecHook: func(int) { hooks.Add(1) },
	})
	rng := mrand.New(mrand.NewSource(2718))
	const jobs = 6
	reqs := make([]Request, jobs)
	for i := range reqs {
		reqs[i] = randReq(rng)
	}
	reqs[0].Class = ClassFixedBase // no comb built: the variable-base fallback
	results, err := e.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	for i, r := range results {
		want := wantPoint(reqs[i])
		if reqs[i].Class == ClassFixedBase {
			want = curve.ScalarMult(reqs[i].K, curve.Generator()).Affine()
		}
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("request %d: wrong point", i)
		}
		if r.Backend != BackendRTL || r.Attempts != 1 || r.Stats.Cycles != p.CyclesFunctional() {
			t.Fatalf("request %d: backend %v attempts %d cycles %d, want RTL/1/%d",
				i, r.Backend, r.Attempts, r.Stats.Cycles, p.CyclesFunctional())
		}
	}
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if runs, lanes := get("engine.lane_runs"), get("engine.lane_lanes"); runs != jobs || lanes != jobs {
		t.Fatalf("lane_runs=%d lane_lanes=%d, want %d each", runs, lanes, jobs)
	}
	if got := hooks.Load(); got != jobs {
		t.Fatalf("ExecHook fired %d times, want once per job (%d)", got, jobs)
	}
}

// TestEngineRejectsUnknownClass: a request naming no serving class —
// a program of core's table the engine does not serve, or no program
// at all — is refused at submission, never run (or retried) as a
// datapath fault.
func TestEngineRejectsUnknownClass(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTestEngine(t, Options{Workers: 1, Registry: reg})
	for _, c := range []Class{core.ProgramEndo, 255} {
		if _, err := e.Submit(context.Background(), Request{K: scalar.Scalar{1}, Class: c}); err == nil {
			t.Fatalf("class %v accepted", c)
		}
	}
	if got := reg.Counter("engine.submitted").Value(); got != 0 {
		t.Fatalf("submitted = %d after a refused request, want 0", got)
	}
}

// TestEngineLaneBacklogFullLanes: a backlog of same-class jobs already
// queued when the worker looks runs in full lanes — 8 jobs on one
// width-4 worker are exactly two lockstep passes of 4.
func TestEngineLaneBacklogFullLanes(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(testProcessor(t), Options{
		Workers: 1, QueueDepth: 8, LaneWidth: 4, Registry: reg,
	})
	rng := mrand.New(mrand.NewSource(8))
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = randReq(rng)
	}
	results, err := e.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	for i, r := range results {
		want := wantPoint(reqs[i])
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("request %d: wrong point", i)
		}
	}
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if runs, lanes := get("engine.lane_runs"), get("engine.lane_lanes"); runs != 2 || lanes != 8 {
		t.Fatalf("lane_runs=%d lane_lanes=%d, want 2 and 8", runs, lanes)
	}
}

// TestEngineCoalescingGroupCommit pins group commit under load: jobs
// that queue up while the only worker is busy all ride its next batch.
// The worker is held in ExecHook on a first job while 4 separate
// Submits queue; once released, its next batch carries all 4.
func TestEngineCoalescingGroupCommit(t *testing.T) {
	reg := telemetry.NewRegistry()
	entered, release := make(chan struct{}), make(chan struct{})
	var hooks atomic.Int64
	e := NewWithProcessor(testProcessor(t), Options{
		Workers: 1, QueueDepth: 8, LaneWidth: 4, Registry: reg,
		ExecHook: func(int) {
			if hooks.Add(1) == 1 {
				close(entered)
				<-release
			}
		},
	})
	rng := mrand.New(mrand.NewSource(5))
	var wg sync.WaitGroup
	submit := func(req Request) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := e.Submit(context.Background(), req)
			want := wantPoint(req)
			if err != nil || !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
				t.Errorf("request failed or wrong point: %v", err)
			}
		}()
	}
	submit(randReq(rng))
	<-entered
	for i := 0; i < 4; i++ {
		submit(randReq(rng))
	}
	for e.Health().QueueDepth < 4 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	e.Close()
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if runs, lanes := get("engine.lane_runs"), get("engine.lane_lanes"); runs != 2 || lanes != 5 {
		t.Fatalf("lane_runs=%d lane_lanes=%d, want 2 and 5 (the backlog in one batch)", runs, lanes)
	}
	if got := reg.Gauge("engine.lane_fill_ratio").Value(); got != 1 {
		t.Fatalf("lane_fill_ratio = %v after the backlog batch, want 1", got)
	}
}

// TestEngineLaneFaultIsolation arms a one-shot guaranteed-detected
// fault on a coalescing engine: exactly one request of the batch pays a
// retry, every request still gets the correct RTL-backed answer, and
// the batch accounting reflects one detected fault.
func TestEngineLaneFaultIsolation(t *testing.T) {
	p := testProcessor(t)
	f := seuFault(t, p)
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(p, Options{
		Workers: 1, QueueDepth: 8, LaneWidth: 4, Validate: core.ValidateOracle, Registry: reg,
		Injector: func(int) rtl.Injector {
			return fault.NewInjector([]fault.Fault{f}, reg).SetBudget(1)
		},
	})
	rng := mrand.New(mrand.NewSource(99))
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = randReq(rng)
	}
	results, err := e.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	retried := 0
	for i, r := range results {
		want := wantPoint(reqs[i])
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("request %d: wrong point", i)
		}
		if r.Backend != BackendRTL {
			t.Fatalf("request %d: backend %v, want RTL", i, r.Backend)
		}
		if r.Attempts > 1 {
			retried++
		}
	}
	if retried != 1 {
		t.Fatalf("%d requests retried, want exactly the faulted lane", retried)
	}
	if got := reg.Counter("engine.validation_failed").Value(); got != 1 {
		t.Fatalf("validation_failed = %d, want 1", got)
	}
	if got := reg.Counter("engine.retries").Value(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
}

// TestEngineCoalescingCancellation: a request canceled while queued is
// skipped by the batch claim and never delivered, and the counters
// still reconcile.
func TestEngineCoalescingCancellation(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(testProcessor(t), Options{
		Workers: 1, QueueDepth: 16, LaneWidth: 4, Registry: reg,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Submit(ctx, randReq(mrand.New(mrand.NewSource(1)))); err == nil {
		t.Fatal("submit with a done context must not run")
	}
	r, err := e.Submit(context.Background(), randReq(mrand.New(mrand.NewSource(2))))
	if err != nil || r.Err != nil {
		t.Fatalf("live submission failed: %v / %v", err, r.Err)
	}
	e.Close()
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if get("engine.submitted") != get("engine.completed")+get("engine.canceled") {
		t.Fatal("telemetry does not reconcile after cancellation")
	}
}

// TestEngineCoalescedEqualsSingle runs the same workload through a
// coalescing engine and a classic single-job engine sharing one
// processor: byte-identical points either way.
func TestEngineCoalescedEqualsSingle(t *testing.T) {
	p := testProcessor(t)
	lanes := NewWithProcessor(p, Options{Workers: 1, QueueDepth: 32, LaneWidth: 4})
	single := NewWithProcessor(p, Options{Workers: 1, QueueDepth: 32})
	defer lanes.Close()
	defer single.Close()
	rng := mrand.New(mrand.NewSource(2718))
	reqs := make([]Request, 9)
	for i := range reqs {
		reqs[i] = randReq(rng)
	}
	rl, err := lanes.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := single.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if !rl[i].Point.X.Equal(rs[i].Point.X) || !rl[i].Point.Y.Equal(rs[i].Point.Y) {
			t.Fatalf("request %d: coalesced and single-job engines disagree", i)
		}
	}
}

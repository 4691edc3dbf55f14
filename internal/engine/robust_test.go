package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/fault"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/telemetry"
)

// fakeClock drives backoff and breaker cooldowns deterministically.
// Sleep advances the clock by the requested amount (a worker sleeping
// through its backoff IS the passage of time in these tests).
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (c *fakeClock) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// seuFault deterministically locates a register-file bit flip that the
// cheap on-curve validation detects (not one the hazard checker kills:
// those never produce a result to validate).
func seuFault(t testing.TB, p *core.Processor) fault.Fault {
	t.Helper()
	f, err := fault.FindDetected(p, fault.CampaignConfig{
		Seed: 0xF4017, Trials: 48, Sites: []fault.Site{fault.SiteRegFile},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// stuckMulFault is a persistent defect in the multiplier's pipeline
// output register: every retiring product has real-lane bit 0 forced
// high, so the datapath is wrong on essentially every run.
func stuckMulFault() fault.Fault {
	return fault.Fault{Site: fault.SitePipeMul, Kind: fault.KindStuckAt1, Bit: 0}
}

// TestRetryRecoversFromTransientSEU is the tentpole acceptance check at
// the engine level: an injected register-file bit flip is (a) detected
// by result validation, (b) retried successfully, and (c) visible in
// the fault.* / engine.* counters.
func TestRetryRecoversFromTransientSEU(t *testing.T) {
	p := testProcessor(t)
	f := seuFault(t, p)
	reg := telemetry.NewRegistry()
	clk := newFakeClock()
	e := NewWithProcessor(p, Options{
		Workers:  1,
		Registry: reg,
		Clock:    clk,
		// Budget 1 models a true SEU: it corrupts exactly one run, so
		// the retry executes on clean hardware.
		Injector: func(int) rtl.Injector {
			return fault.NewInjector([]fault.Fault{f}, reg).SetBudget(1)
		},
	})
	defer e.Close()

	k := core.DefaultTraceScalar()
	r, err := e.Submit(context.Background(), Request{K: k})
	if err != nil {
		t.Fatalf("submit over a transient fault: %v", err)
	}
	want := oracle(k, curve.Affine{})
	if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
		t.Fatal("recovered result differs from functional oracle")
	}
	if r.Backend != BackendRTL {
		t.Fatalf("backend = %v, want rtl (the retry should have recovered)", r.Backend)
	}
	if r.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one detected fault, one clean retry)", r.Attempts)
	}
	if got := clk.Sleeps(); len(got) != 1 || got[0] <= 0 {
		t.Fatalf("backoff sleeps = %v, want exactly one positive delay", got)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"engine.validation_failed":  1,
		"engine.retries":            1,
		"engine.fallback_completed": 0,
		"fault.armed":               1,
		"fault.fired":               1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestWorkerQuarantine: a worker whose datapath keeps producing
// detected faults is moved permanently onto the software backend; its
// requests are still answered correctly, without further RTL attempts.
func TestWorkerQuarantine(t *testing.T) {
	p := testProcessor(t)
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(p, Options{
		Workers:         1,
		Registry:        reg,
		Clock:           newFakeClock(),
		MaxAttempts:     1,
		QuarantineAfter: 2,
		BreakerWindow:   -1, // isolate quarantine from the breaker
		Injector: func(int) rtl.Injector {
			return fault.NewInjector([]fault.Fault{stuckMulFault()}, reg)
		},
	})
	defer e.Close()

	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		k := scalar.FromUint64(uint64(i) * 7)
		r, err := e.Submit(ctx, Request{K: k})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		want := oracle(k, curve.Affine{})
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("submit %d: degraded result differs from oracle", i)
		}
		if r.Backend != BackendSoftware {
			t.Fatalf("submit %d: backend = %v, want software", i, r.Backend)
		}
		if i >= 3 && r.Attempts != 0 {
			t.Fatalf("submit %d: quarantined worker made %d RTL attempts", i, r.Attempts)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["engine.workers_quarantined"]; got != 1 {
		t.Fatalf("engine.workers_quarantined = %d, want 1", got)
	}
	if got := snap.Counters["engine.validation_failed"]; got != 2 {
		t.Fatalf("engine.validation_failed = %d, want 2 (then the worker was benched)", got)
	}
}

// TestBreakerDegradesUnderSustainedFaults is the acceptance scenario:
// under a sustained fault load the circuit breaker opens and the engine
// degrades to the functional backend — without dropping or mis-
// answering a single submitted request.
func TestBreakerDegradesUnderSustainedFaults(t *testing.T) {
	breakerUnderSustainedFaults(t, testProcessor(t), ClassVariableBase)
}

// TestBreakerFallbackFixedBase runs the same scenario on the comb
// class, which carries signing's secret nonce: once the breaker is
// open, the software answer comes from the constant-time generator
// table and must equal the naive double-and-add oracle.
func TestBreakerFallbackFixedBase(t *testing.T) {
	breakerUnderSustainedFaults(t, testFBProcessor(t), ClassFixedBase)
}

func breakerUnderSustainedFaults(t *testing.T, p *core.Processor, class Class) {
	reg := telemetry.NewRegistry()
	clk := newFakeClock()
	e := NewWithProcessor(p, Options{
		Workers:          1,
		Registry:         reg,
		Clock:            clk,
		MaxAttempts:      2,
		QuarantineAfter:  -1, // isolate the breaker from quarantine
		BreakerWindow:    4,
		BreakerThreshold: 1.0,
		BreakerCooldown:  time.Hour, // stays open for the whole test
		Injector: func(int) rtl.Injector {
			return fault.NewInjector([]fault.Fault{stuckMulFault()}, reg)
		},
	})
	defer e.Close()

	const n = 12
	ctx := context.Background()
	for i := 1; i <= n; i++ {
		k := scalar.Scalar{uint64(i), uint64(i) * 0x9E3779B97F4A7C15, 3, uint64(i)}
		r, err := e.Submit(ctx, Request{K: k, Class: class})
		if err != nil || r.Err != nil {
			t.Fatalf("submit %d dropped under sustained faults: %v / %v", i, err, r.Err)
		}
		if r.Backend != BackendSoftware {
			t.Fatalf("submit %d: backend %v under a stuck multiplier, want software", i, r.Backend)
		}
		want := curve.ScalarMultBinary(k, curve.Generator()).Affine()
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("submit %d mis-answered under sustained faults", i)
		}
		// Requests 1-2 burn the 4-attempt window; from then on the
		// breaker is open and the RTL path is not even tried.
		if i > 2 && r.Attempts != 0 {
			t.Fatalf("submit %d: breaker open but %d RTL attempts made", i, r.Attempts)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["engine.breaker_opened"]; got != 1 {
		t.Fatalf("engine.breaker_opened = %d, want 1", got)
	}
	if got := snap.Gauges["engine.breaker_open"]; got != 1 {
		t.Fatalf("engine.breaker_open gauge = %v, want 1", got)
	}
	if got := snap.Counters["engine.validation_failed"]; got != 4 {
		t.Fatalf("engine.validation_failed = %d, want 4 (the window that tripped it)", got)
	}
	if got := snap.Counters["engine.fallback_completed"]; got != n {
		t.Fatalf("engine.fallback_completed = %d, want %d", got, n)
	}
	if got := snap.Counters["engine.completed"]; got != n {
		t.Fatalf("engine.completed = %d, want %d (no request may be dropped)", got, n)
	}
}

// TestBreakerHalfOpenProbeRecloses: after the cooldown one probe is let
// back onto the RTL path; when the hardware has healed (the transient
// budget is spent) the probe closes the breaker and RTL serving
// resumes.
func TestBreakerHalfOpenProbeRecloses(t *testing.T) {
	p := testProcessor(t)
	f := seuFault(t, p)
	reg := telemetry.NewRegistry()
	clk := newFakeClock()
	const cooldown = 10 * time.Millisecond
	e := NewWithProcessor(p, Options{
		Workers:          1,
		Registry:         reg,
		Clock:            clk,
		MaxAttempts:      1,
		QuarantineAfter:  -1,
		BreakerWindow:    1,
		BreakerThreshold: 1.0,
		BreakerCooldown:  cooldown,
		Injector: func(int) rtl.Injector {
			return fault.NewInjector([]fault.Fault{f}, reg).SetBudget(1)
		},
	})
	defer e.Close()

	ctx := context.Background()
	k := core.DefaultTraceScalar()

	// 1: the fault fires, the single-slot window trips the breaker.
	r, err := e.Submit(ctx, Request{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if r.Backend != BackendSoftware || r.Attempts != 1 {
		t.Fatalf("request 1: backend %v attempts %d, want software/1", r.Backend, r.Attempts)
	}
	if got := reg.Snapshot().Gauges["engine.breaker_open"]; got != 1 {
		t.Fatalf("breaker did not open: gauge = %v", got)
	}

	// 2: still inside the cooldown — no RTL attempt at all.
	if r, err = e.Submit(ctx, Request{K: k}); err != nil {
		t.Fatal(err)
	} else if r.Backend != BackendSoftware || r.Attempts != 0 {
		t.Fatalf("request 2: backend %v attempts %d, want software/0", r.Backend, r.Attempts)
	}

	// 3: past the cooldown the probe runs on the healed datapath and
	// recloses the breaker.
	clk.Advance(cooldown)
	if r, err = e.Submit(ctx, Request{K: k}); err != nil {
		t.Fatal(err)
	} else if r.Backend != BackendRTL || r.Attempts != 1 {
		t.Fatalf("probe request: backend %v attempts %d, want rtl/1", r.Backend, r.Attempts)
	}
	want := oracle(k, curve.Affine{})
	if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
		t.Fatal("probe result differs from oracle")
	}
	if got := reg.Snapshot().Gauges["engine.breaker_open"]; got != 0 {
		t.Fatalf("breaker did not reclose after a clean probe: gauge = %v", got)
	}
}

func TestBackoffDelayBoundedAndJittered(t *testing.T) {
	rng := jitterRNG(1)
	base, max := 200*time.Microsecond, 10*time.Millisecond
	prevCap := time.Duration(0)
	for attempt := 0; attempt < 12; attempt++ {
		cap := base << attempt
		if cap > max || cap <= 0 {
			cap = max
		}
		for i := 0; i < 32; i++ {
			d := backoffDelay(base, max, attempt, &rng)
			if d < cap/2 || d > cap {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, cap/2, cap)
			}
		}
		if cap < prevCap {
			t.Fatalf("attempt %d: backoff cap shrank", attempt)
		}
		prevCap = cap
	}
	if d := backoffDelay(0, max, 3, &rng); d != 0 {
		t.Fatalf("zero base must mean zero delay, got %v", d)
	}
}

package engine

import (
	"context"
	mrand "math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/scalar"
	"repro/internal/schnorrq"
	"repro/internal/telemetry"
)

// testFBProcessor is the FixedBase-enabled counterpart of testProcessor
// (cache-deduplicated, so the comb program is built once per binary).
func testFBProcessor(t testing.TB) *core.Processor {
	t.Helper()
	p, err := CachedProcessor(core.Config{FixedBase: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// classReq builds one request of the given class; variable-base requests
// get a non-generator base so a class-routing mistake changes the answer.
func classReq(rng *mrand.Rand, c Class) Request {
	var k scalar.Scalar
	for i := range k {
		k[i] = rng.Uint64()
	}
	req := Request{K: k, Class: c}
	if c == ClassVariableBase {
		var b scalar.Scalar
		for i := range b {
			b[i] = rng.Uint64()
		}
		req.Base = curve.ScalarMultBinary(b, curve.Generator()).Affine()
	}
	return req
}

func wantClassPoint(req Request) curve.Affine {
	if req.Class == ClassFixedBase {
		return curve.ScalarMult(req.K, curve.Generator()).Affine()
	}
	return wantPoint(req)
}

// TestEngineClassRouting pins the per-program routing surface: fixed-
// base-class requests compute [k]G on the comb program, variable-base
// requests keep their own base, and the per-program completion counters
// account for every request.
func TestEngineClassRouting(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(testFBProcessor(t), Options{
		Workers: 2, QueueDepth: 64, Validate: core.ValidateOracle, Registry: reg,
	})
	rng := mrand.New(mrand.NewSource(63))
	const jobs = 16
	reqs := make([]Request, jobs)
	fb := 0
	for i := range reqs {
		c := ClassVariableBase
		if i%3 != 0 {
			c = ClassFixedBase
			fb++
		}
		reqs[i] = classReq(rng, c)
	}
	results, err := e.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		want := wantClassPoint(reqs[i])
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("request %d (%v): wrong point", i, reqs[i].Class)
		}
		if r.Backend != BackendRTL {
			t.Fatalf("request %d: backend %v, want RTL", i, r.Backend)
		}
	}
	e.Close()
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if got := get("engine.completed_fixedbase"); got != int64(fb) {
		t.Fatalf("completed_fixedbase = %d, want %d", got, fb)
	}
	if got := get("engine.completed_variablebase"); got != int64(jobs-fb) {
		t.Fatalf("completed_variablebase = %d, want %d", got, jobs-fb)
	}
	// The comb's schedule is the point of the routing: fixed-base results
	// must report far fewer datapath cycles than variable-base ones.
	var fbCycles, vbCycles int
	for i, r := range results {
		if reqs[i].Class == ClassFixedBase {
			fbCycles = r.Stats.Cycles
		} else {
			vbCycles = r.Stats.Cycles
		}
	}
	if fbCycles == 0 || fbCycles*2 > vbCycles {
		t.Fatalf("fixed-base ran %d cycles vs variable-base %d: routing did not take the cheap schedule", fbCycles, vbCycles)
	}
}

// TestEngineClassFallback: a processor built without the comb program
// serves fixed-base-class requests correctly on the variable-base
// program (graceful degradation, no error surface).
func TestEngineClassFallback(t *testing.T) {
	e := NewWithProcessor(testProcessor(t), Options{Workers: 1, Validate: core.ValidateOracle})
	defer e.Close()
	rng := mrand.New(mrand.NewSource(64))
	req := classReq(rng, ClassFixedBase)
	r, err := e.Submit(context.Background(), req)
	if err != nil || r.Err != nil {
		t.Fatalf("fixed-base request on a comb-less processor failed: %v / %v", err, r.Err)
	}
	want := wantClassPoint(req)
	if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
		t.Fatal("fallback fixed-base request returned a wrong point")
	}
	if r.Backend != BackendRTL {
		t.Fatalf("fallback backend %v, want RTL (variable-base program)", r.Backend)
	}
}

// TestSchnorrQSigningRidesFixedBase is the end-to-end routing check:
// SignWith over a comb-carrying engine produces the bit-compatible
// signature AND the commitment multiplication lands on the fixed-base
// program (visible in the per-program completion counters), while
// verification stays variable-base.
func TestSchnorrQSigningRidesFixedBase(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(testFBProcessor(t), Options{
		Workers: 2, Validate: core.ValidateOracle, Registry: reg,
	})
	defer e.Close()
	ctx := context.Background()
	key, err := schnorrq.NewKeyFromSeed([32]byte{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("signing takes the cheap schedule")
	sig, err := key.SignWith(ctx, e, msg)
	if err != nil {
		t.Fatal(err)
	}
	if sig != key.Sign(msg) {
		t.Fatal("fixed-base-routed signature differs from the software signature")
	}
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if got := get("engine.completed_fixedbase"); got != 1 {
		t.Fatalf("completed_fixedbase = %d after one signature, want 1", got)
	}
	ok, err := schnorrq.VerifyWith(ctx, e, &key.Public, msg, sig[:])
	if err != nil || !ok {
		t.Fatalf("verification failed: ok=%v err=%v", ok, err)
	}
	if got := get("engine.completed_fixedbase"); got != 1 {
		t.Fatalf("verification moved the fixed-base counter to %d; it must stay variable-base", got)
	}
	if got := get("engine.completed_variablebase"); got != 2 {
		t.Fatalf("completed_variablebase = %d after one verification, want 2", got)
	}
}

// TestEngineLaneClassHomogeneity is the coalescing regression test: a
// mixed burst through a LaneWidth-4 worker must never share a lockstep
// batch across program classes. Mixing is observable two ways — a
// variable-base request with its own base would come back as [k]G (or
// vice versa), and the class-break counter would stay zero for an
// interleaved burst. Every request is delivered exactly once and the
// telemetry reconciles after drain. Runs under -race in CI.
func TestEngineLaneClassHomogeneity(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	e := NewWithProcessor(testFBProcessor(t), Options{
		Workers: 1, QueueDepth: 64, LaneWidth: 4, Clock: clk,
		Validate: core.ValidateOracle, Registry: reg,
	})
	rng := mrand.New(mrand.NewSource(65))
	// Runs of 3+3+2+... so some batches can fill homogeneously and every
	// class boundary lands inside a potential batch.
	classes := []Class{
		ClassFixedBase, ClassFixedBase, ClassFixedBase,
		ClassVariableBase, ClassVariableBase, ClassVariableBase,
		ClassFixedBase, ClassFixedBase,
		ClassVariableBase,
		ClassFixedBase,
		ClassVariableBase, ClassVariableBase,
	}
	reqs := make([]Request, len(classes))
	for i, c := range classes {
		reqs[i] = classReq(rng, c)
	}
	results, err := e.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		want := wantClassPoint(reqs[i])
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("request %d (%v): wrong point — a lane batch mixed program classes", i, reqs[i].Class)
		}
	}
	e.Close()
	get := func(name string) int64 { return reg.Counter(name).Value() }
	if get("engine.submitted") != get("engine.completed")+get("engine.canceled") {
		t.Fatal("telemetry does not reconcile: submitted != completed + canceled")
	}
	if got := get("engine.completed"); got != int64(len(reqs)) {
		t.Fatalf("completed = %d, want %d (exactly-once delivery)", got, len(reqs))
	}
	if get("engine.completed_fixedbase")+get("engine.completed_variablebase") != int64(len(reqs)) {
		t.Fatal("per-class completion counters do not cover every request")
	}
	if get("engine.lane_class_breaks") == 0 {
		t.Fatal("interleaved burst produced no class breaks: batches were not cut at class boundaries")
	}
}

package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/scalar"
	"repro/internal/schnorrq"
)

// testProcessor shares one built processor across every test in the
// package (and, through CachedProcessor, with the engines under test).
func testProcessor(t testing.TB) *core.Processor {
	t.Helper()
	p, err := CachedProcessor(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	e := NewWithProcessor(testProcessor(t), opts)
	t.Cleanup(e.Close)
	return e
}

// oracle computes the functional-model reference for [k]Base.
func oracle(k scalar.Scalar, base curve.Affine) curve.Affine {
	if base == (curve.Affine{}) {
		base = curve.GeneratorAffine()
	}
	return curve.ScalarMult(k, curve.FromAffine(base)).Affine()
}

func TestSubmitMatchesOracle(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	ctx := context.Background()
	for i := uint64(1); i <= 4; i++ {
		k := scalar.Scalar{i * 0x9E3779B97F4A7C15, i, ^i, i << 40}
		r, err := e.Submit(ctx, Request{K: k})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		want := oracle(k, curve.Affine{})
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("submit %d: engine result differs from functional oracle", i)
		}
		if r.Stats.Cycles <= 0 {
			t.Fatalf("submit %d: missing RTL stats", i)
		}
	}
}

func TestSubmitArbitraryBase(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2, Validate: core.ValidateOracle})
	base := curve.ScalarMult(scalar.FromUint64(12345), curve.Generator()).Affine()
	k := scalar.Scalar{0xFEEDFACE, 7, 0, 1}
	r, err := e.Submit(context.Background(), Request{K: k, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(k, base)
	if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
		t.Fatal("arbitrary-base result differs from functional oracle")
	}
}

func TestSubmitBatchOrderAndOracle(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 4, QueueDepth: 64})
	const n = 12
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i].K = scalar.Scalar{uint64(i) + 1, uint64(i) * 77, 3, uint64(i)}
	}
	out, err := e.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("batch returned %d results, want %d", len(out), n)
	}
	// Results must land at the index of their request even though
	// workers race over the queue.
	for i, r := range out {
		want := oracle(reqs[i].K, curve.Affine{})
		if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
			t.Fatalf("batch result %d does not match its request's oracle", i)
		}
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// One worker, tiny queue: flood it and require honest rejections,
	// with no accepted request lost.
	e := newTestEngine(t, Options{Workers: 1, QueueDepth: 2})
	ctx := context.Background()
	const n = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, rejected := 0, 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := scalar.Scalar{uint64(i) + 1}
			_, err := e.Submit(ctx, Request{K: k})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				accepted++
			case errors.Is(err, ErrQueueFull):
				rejected++
			default:
				t.Errorf("submit %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if accepted+rejected != n {
		t.Fatalf("accepted %d + rejected %d != %d", accepted, rejected, n)
	}
	if accepted == 0 {
		t.Fatal("every request rejected; queue admits nothing")
	}
	snap := e.Metrics().Snapshot()
	if got := snap.Counters["engine.rejected"]; got != int64(rejected) {
		t.Errorf("engine.rejected = %d, want %d", got, rejected)
	}
	if got := snap.Counters["engine.submitted"]; got != int64(accepted) {
		t.Errorf("engine.submitted = %d, want %d", got, accepted)
	}
}

func TestBatchRejectionIsAtomic(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, QueueDepth: 3})
	reqs := make([]Request, 8) // larger than the whole queue
	for i := range reqs {
		reqs[i].K = scalar.FromUint64(uint64(i) + 1)
	}
	if _, err := e.SubmitBatch(context.Background(), reqs); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized batch: err = %v, want ErrQueueFull", err)
	}
	snap := e.Metrics().Snapshot()
	if got := snap.Counters["engine.submitted"]; got != 0 {
		t.Fatalf("rejected batch partially enqueued: submitted = %d", got)
	}
	// The engine must still serve after rejecting.
	if _, err := e.Submit(context.Background(), Request{K: scalar.FromUint64(9)}); err != nil {
		t.Fatalf("submit after batch rejection: %v", err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := NewWithProcessor(testProcessor(t), Options{Workers: 1})
	e.Close()
	if _, err := e.Submit(context.Background(), Request{K: scalar.FromUint64(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// TestCloseIdempotentAndRaceSafe is the regression test for Close
// racing concurrent Close and in-flight Submit calls: every submission
// must resolve (a correct result or an honest ErrClosed/ErrQueueFull),
// both closers must return, and the accounting must reconcile — no
// hang, no panic, no lost request.
func TestCloseIdempotentAndRaceSafe(t *testing.T) {
	for iter := 0; iter < 3; iter++ {
		e := NewWithProcessor(testProcessor(t), Options{Workers: 2, QueueDepth: 16})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				k := scalar.FromUint64(uint64(iter*100 + i + 1))
				r, err := e.Submit(context.Background(), Request{K: k})
				switch {
				case err == nil:
					want := oracle(k, curve.Affine{})
					if !r.Point.X.Equal(want.X) || !r.Point.Y.Equal(want.Y) {
						t.Errorf("iter %d submit %d: accepted result is wrong", iter, i)
					}
				case errors.Is(err, ErrClosed) || errors.Is(err, ErrQueueFull):
					// honest refusal while closing / under pressure
				default:
					t.Errorf("iter %d submit %d: unexpected error %v", iter, i, err)
				}
			}(i)
		}
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				e.Close()
			}()
		}
		close(start)
		wg.Wait()
		e.Close() // and once more after everything settled
		snap := e.Metrics().Snapshot()
		sub := snap.Counters["engine.submitted"]
		done := snap.Counters["engine.completed"] + snap.Counters["engine.canceled"]
		if sub != done {
			t.Fatalf("iter %d: submitted %d != completed+canceled %d", iter, sub, done)
		}
	}
}

func TestCanceledContext(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Submit(ctx, Request{K: scalar.FromUint64(1)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProcessorCacheShared(t *testing.T) {
	p := testProcessor(t)
	before := CacheSize()
	q, err := CachedProcessor(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p != q {
		t.Fatal("same config must return the same cached processor instance")
	}
	if CacheSize() != before {
		t.Fatalf("cache grew on a repeat config: %d -> %d", before, CacheSize())
	}
	e1 := newTestEngine(t, Options{Workers: 1})
	e2 := newTestEngine(t, Options{Workers: 2})
	if e1.Processor() != e2.Processor() {
		t.Fatal("engines with the same config must share one processor")
	}
}

// TestSchnorrQOverEngine runs SchnorrQ signing and verification with
// every scalar multiplication executed on the engine's RTL workers, and
// checks bit-compatibility with the software scheme.
func TestSchnorrQOverEngine(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2, Validate: core.ValidateOracle})
	ctx := context.Background()
	key, err := schnorrq.NewKeyFromSeed([32]byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("signed on the modeled ASIC")
	sig, err := key.SignWith(ctx, e, msg)
	if err != nil {
		t.Fatal(err)
	}
	if soft := key.Sign(msg); sig != soft {
		t.Fatal("engine-signed signature differs from software signature")
	}
	ok, err := schnorrq.VerifyWith(ctx, e, &key.Public, msg, sig[:])
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("engine verification rejected a valid signature")
	}
	ok, err = schnorrq.VerifyWith(ctx, e, &key.Public, []byte("tampered"), sig[:])
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("engine verification accepted a tampered message")
	}
}

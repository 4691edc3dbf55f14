package core

import (
	mrand "math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
)

// TestExecutorScalarMultZeroAllocs pins the steady-state guarantee: a
// warm Executor running a lone scalar multiplication (a width-1 lane
// batch, no injector) performs zero heap allocations.
func TestExecutorScalarMultZeroAllocs(t *testing.T) {
	p := getProcessor(t)
	ex := p.NewExecutor()
	k, g := DefaultTraceScalar(), curve.GeneratorAffine()
	if _, _, err := ex.ScalarMultPoint(k, g); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ex.ScalarMultPoint(k, g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Executor.ScalarMultPoint allocates %.1f times per run, want 0", allocs)
	}
}

// TestExecutorMatchesInterpreted runs the end-to-end differential at the
// core layer for every program of the table: a lockstep lane batch of
// the executor must agree with the reference interpreter, lane for
// lane, on both the result point and the run statistics.
func TestExecutorMatchesInterpreted(t *testing.T) {
	rng := mrand.New(mrand.NewSource(4242))
	const n = 4
	for _, c := range tableCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ks, bases := laneCase(rng, n)
			outs := make([]curve.Affine, n)
			errs := make([]error, n)
			st, err := c.p.NewExecutor().ScalarMultBatch(c.id, ks, bases, outs, errs, ValidateNone)
			if err != nil {
				t.Fatal(err)
			}
			for l, k := range ks {
				if errs[l] != nil {
					t.Fatalf("lane %d: %v", l, errs[l])
				}
				want, wantSt, err := c.p.interpret(served(c.p, c.id), k, c.id.Base(bases[l]), nil)
				if err != nil {
					t.Fatalf("lane %d: interpreted: %v", l, err)
				}
				if !outs[l].X.Equal(want.X) || !outs[l].Y.Equal(want.Y) {
					t.Fatalf("lane %d: compiled result differs from interpreted", l)
				}
				if !reflect.DeepEqual(st, wantSt) {
					t.Fatalf("lane %d: stats differ:\ncompiled:    %+v\ninterpreted: %+v", l, st, wantSt)
				}
			}
		})
	}
}

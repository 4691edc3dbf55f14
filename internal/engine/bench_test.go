package engine

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/scalar"
)

// BenchmarkEngineThroughput measures batch scalar-multiplication
// throughput through the full serving path (queue, workers with
// per-worker lane machines, on-curve validation). One op is one scalar
// multiplication; ReportAllocs makes per-op allocation overhead of the
// serving layer visible next to the allocation-free executor
// underneath it.
func BenchmarkEngineThroughput(b *testing.B) {
	proc, err := CachedProcessor(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 16
	e := NewWithProcessor(proc, Options{
		Workers:    runtime.NumCPU(),
		QueueDepth: 2 * batch,
	})
	defer e.Close()

	reqs := make([]Request, batch)
	s := uint64(0xbe9c)
	next := func() uint64 { // splitmix64
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	for i := range reqs {
		reqs[i].K = scalar.Scalar{next(), next(), next(), next()}
	}
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		out, err := e.SubmitBatch(ctx, reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range out {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

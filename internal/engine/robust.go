// Robustness machinery for the serving engine: the retry backoff, the
// per-worker quarantine bookkeeping, and the circuit breaker that
// degrades the engine from the RTL datapath to the functional software
// backend when the detected-fault rate says the modeled hardware can no
// longer be trusted (the serving-layer answer to near-threshold
// operation, where the paper's 0.32 V energy headline lives). See
// docs/FAULTS.md for the full degradation ladder.
package engine

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Clock abstracts time for the retry/breaker machinery so tests can
// drive backoff and cooldown deterministically. The engine's latency
// histogram keeps using real time regardless.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// The backoff slept between RTL retries: backoffBase << attempt,
// capped at backoffMax, with jitter.
const (
	backoffBase = 200 * time.Microsecond
	backoffMax  = 10 * time.Millisecond
)

// jitterRNG is a splitmix64 stream seeding the backoff jitter; each
// worker owns one, seeded by its index, so retry timing is
// deterministic per worker and never synchronized across workers (no
// retry stampedes).
type jitterRNG uint64

func (s *jitterRNG) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// backoffDelay is the pre-retry delay for 0-based retry attempt:
// exponential (base << attempt) capped at max, with equal-jitter —
// half deterministic, half drawn from the worker's stream.
func backoffDelay(base, max time.Duration, attempt int, rng *jitterRNG) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.next()%uint64(half+1))
}

// breaker trips the engine off the RTL path when the recent detected-
// fault rate crosses a threshold, and probes it half-open after a
// cooldown. All RTL attempts report into it; while open, workers serve
// from the software backend, so a sick datapath degrades throughput
// and provenance — never correctness.
type breaker struct {
	mu        sync.Mutex
	window    []bool // ring of recent RTL outcomes, true = detected fault
	idx, n    int
	faults    int
	threshold float64
	cooldown  time.Duration
	open      bool
	openedAt  time.Time
	probing   bool

	// onTrip / onClose fire (under mu) the moment the breaker opens or a
	// clean probe closes it — the engine hooks the flight recorder here
	// so a trip snapshots the events that caused it. Never reacquire
	// breaker state from inside.
	onTrip  func()
	onClose func()

	openGauge  *telemetry.Gauge
	probeGauge *telemetry.Gauge
	openedC    *telemetry.Counter
}

func newBreaker(window int, threshold float64, cooldown time.Duration, reg *telemetry.Registry, ns string) *breaker {
	b := &breaker{
		window:     make([]bool, window),
		threshold:  threshold,
		cooldown:   cooldown,
		openGauge:  reg.Gauge(ns + ".breaker_open"),
		probeGauge: reg.Gauge(ns + ".breaker_probing"),
		openedC:    reg.Counter(ns + ".breaker_opened"),
	}
	b.openGauge.Set(0)
	b.probeGauge.Set(0)
	return b
}

// allowRTL reports whether an RTL attempt may proceed. While open it
// admits exactly one probe per cooldown expiry (half-open).
func (b *breaker) allowRTL(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if !b.probing && now.Sub(b.openedAt) >= b.cooldown {
		b.probing = true
		b.probeGauge.Set(1)
		return true
	}
	return false
}

// record feeds one RTL attempt outcome back. A clean probe closes the
// breaker and forgets history; a failed probe restarts the cooldown.
func (b *breaker) record(faulty bool, now time.Time) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing {
		b.probing = false
		b.probeGauge.Set(0)
		if faulty {
			b.openedAt = now
			return
		}
		b.open = false
		b.idx, b.n, b.faults = 0, 0, 0
		for i := range b.window {
			b.window[i] = false
		}
		b.openGauge.Set(0)
		if b.onClose != nil {
			b.onClose()
		}
		return
	}
	if b.open {
		return // stray record while open (attempt admitted pre-trip)
	}
	if b.n == len(b.window) {
		if b.window[b.idx] {
			b.faults--
		}
	} else {
		b.n++
	}
	b.window[b.idx] = faulty
	if faulty {
		b.faults++
	}
	b.idx = (b.idx + 1) % len(b.window)
	if b.n == len(b.window) && float64(b.faults) >= b.threshold*float64(len(b.window)) {
		b.open = true
		b.openedAt = now
		b.openedC.Inc()
		b.openGauge.Set(1)
		if b.onTrip != nil {
			b.onTrip()
		}
	}
}

// isOpen reports the breaker state (telemetry mirrors it on the
// engine.breaker_open gauge).
func (b *breaker) isOpen() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

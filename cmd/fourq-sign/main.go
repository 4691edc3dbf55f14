// Command fourq-sign is the ITS-flavoured end-to-end demo: generate a
// SchnorrQ key pair, sign a message and verify it in software, then
// repeat signing and verification with every scalar multiplication
// served by the concurrent batch engine (cycle-accurate RTL workers),
// and report what the modelled ASIC would achieve for the same
// operations.
//
// Observability (see docs/OBSERVABILITY.md): -debug-addr serves the
// unified debug surface (pprof, expvar, /metrics, /debug/telemetry,
// /debug/flightrecorder) over the engine's own registry and flight
// recorder; -metrics writes the engine's Prometheus text exposition to
// a file at exit (the `make obs-smoke` hook).
package main

import (
	"context"
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schnorrq"
	"repro/internal/telemetry"
)

func main() {
	msg := flag.String("msg", "priority vehicle approaching: clear intersection 7", "message to sign")
	asic := flag.Bool("asic", true, "also report modelled ASIC timing")
	workers := flag.Int("workers", runtime.NumCPU(), "engine worker pool size for the SchnorrQ section")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar, /metrics and /debug on this address (e.g. localhost:6060)")
	metricsPath := flag.String("metrics", "", "write the engine's Prometheus text exposition to this file at exit")
	flag.Parse()

	if err := run(*msg, *asic, *workers, *debugAddr, *metricsPath); err != nil {
		fmt.Fprintln(os.Stderr, "fourq-sign:", err)
		os.Exit(1)
	}
}

func run(msg string, asic bool, workers int, debugAddr, metricsPath string) error {
	// One registry + flight recorder for the whole process: the SchnorrQ
	// engine reports into them, and the debug surface serves them live.
	reg := telemetry.NewRegistry()
	fr := telemetry.NewFlightRecorder(0)
	if debugAddr != "" {
		telemetry.ServeDebug(debugAddr, reg, fr)
	}
	fmt.Println("generating SchnorrQ key pair...")
	t0 := time.Now()
	key, err := schnorrq.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	fmt.Printf("  done in %v\n", time.Since(t0).Round(time.Microsecond))

	fmt.Printf("signing %q...\n", msg)
	t0 = time.Now()
	sig := key.Sign([]byte(msg))
	signDur := time.Since(t0)
	fmt.Printf("  signature (R||s): %x...\n", sig[:24])
	fmt.Printf("  software signing time: %v\n", signDur.Round(time.Microsecond))

	t0 = time.Now()
	ok := schnorrq.Verify(&key.Public, []byte(msg), sig[:])
	verDur := time.Since(t0)
	if !ok {
		return fmt.Errorf("signature did not verify")
	}
	fmt.Printf("  verified in software: %v\n", verDur.Round(time.Microsecond))

	// Tampering check for the demo.
	bad := strings.ToUpper(msg)
	if schnorrq.Verify(&key.Public, []byte(bad), sig[:]) {
		return fmt.Errorf("tampered message verified")
	}
	fmt.Println("  tampered message correctly rejected")

	if err := schnorrqOverEngine(key, msg, sig, workers, reg, fr); err != nil {
		return err
	}

	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		err = telemetry.WritePrometheus(f, reg.Snapshot())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Printf("wrote Prometheus exposition to %s\n", metricsPath)
	}

	if asic {
		fmt.Println("modelled ASIC offload (scalar multiplications on the cryptoprocessor):")
		// Same cache the engine uses: when the SchnorrQ section above
		// already built the default processor this is a cache hit.
		p, err := engine.CachedProcessor(core.Config{})
		if err != nil {
			return err
		}
		m, err := p.PowerModel()
		if err != nil {
			return err
		}
		// Signing = 1 SM; verification = 2 SMs (double-scalar).
		for _, v := range []float64{1.20, 0.32} {
			fmt.Printf("  VDD %.2f V: sign %7.1f us (%5.0f msg/s), verify %7.1f us (%5.0f msg/s), %.3f uJ/SM\n",
				v,
				m.Latency(v)*1e6, m.Throughput(v),
				2*m.Latency(v)*1e6, m.Throughput(v)/2,
				m.EnergyPerSM(v)*1e6)
		}
		fmt.Printf("  (the paper's dense-traffic scenario needs ~1000 verifications/s: satisfied at 1.2 V with %.0fx headroom)\n",
			m.Throughput(1.2)/2/1000)
	}
	return nil
}

// schnorrqOverEngine signs and verifies the message again where every
// scalar multiplication runs through the batch engine: the nonce
// commitment [r]G during signing, and [s]G plus [h]A during
// verification, are each executed on a cycle-accurate RTL worker. soft
// is the software signature the engine's must reproduce byte for byte.
func schnorrqOverEngine(key *schnorrq.PrivateKey, msg string, soft [schnorrq.SignatureSize]byte, workers int, reg *telemetry.Registry, fr *telemetry.FlightRecorder) error {
	fmt.Printf("SchnorrQ over the batch engine (%d worker(s), RTL executors):\n", workers)
	eng, err := engine.New(core.Config{}, engine.Options{
		Workers: workers, Registry: reg, FlightRecorder: fr,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	ctx := context.Background()

	t0 := time.Now()
	sig, err := key.SignWith(ctx, eng, []byte(msg))
	if err != nil {
		return err
	}
	signDur := time.Since(t0)
	fmt.Printf("  signature (R||s): %x...\n", sig[:24])
	fmt.Printf("  engine signing time: %v (1 scalar multiplication)\n", signDur.Round(time.Microsecond))

	// Cross-check: the engine-backed signature must be byte-identical to
	// the pure-software one (SchnorrQ is deterministic) and must pass the
	// software verifier.
	if soft != sig {
		return fmt.Errorf("engine-backed signature diverges from software signing")
	}
	pub := &key.Public
	if !schnorrq.Verify(pub, []byte(msg), sig[:]) {
		return fmt.Errorf("engine-backed signature rejected by software verifier")
	}

	t0 = time.Now()
	ok, err := schnorrq.VerifyWith(ctx, eng, pub, []byte(msg), sig[:])
	if err != nil {
		return err
	}
	verDur := time.Since(t0)
	if !ok {
		return fmt.Errorf("engine verification rejected a valid signature")
	}
	fmt.Printf("  engine verification time: %v (2 scalar multiplications)\n", verDur.Round(time.Microsecond))

	bad := strings.ToUpper(msg)
	if ok, err := schnorrq.VerifyWith(ctx, eng, pub, []byte(bad), sig[:]); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("engine verified a tampered message")
	}
	fmt.Println("  tampered message correctly rejected by the engine verifier")

	snap := eng.Metrics().Snapshot()
	fmt.Printf("  engine telemetry: submitted=%d completed=%d failed=%d\n",
		snap.Counters["engine.submitted"], snap.Counters["engine.completed"],
		snap.Counters["engine.failed"])
	return nil
}

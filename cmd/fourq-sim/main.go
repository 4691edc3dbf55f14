// Command fourq-sim executes scalar multiplications on the cycle-accurate
// datapath model, verifies every result against the functional library,
// and reports cycle counts plus modelled latency and energy at a chosen
// supply voltage.
//
// Pass -debug-addr (e.g. "localhost:6060") to serve the unified debug
// surface (net/http/pprof, expvar, /metrics, /debug/telemetry) while
// the simulation runs; see docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"math/big"
	"os"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/fp2"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/telemetry"
)

func main() {
	kHex := flag.String("k", "", "scalar in hex (random-looking default if empty)")
	vdd := flag.Float64("vdd", 1.20, "supply voltage [0.32, 1.2]")
	trials := flag.Int("verify", 4, "number of random verification runs")
	vcdPath := flag.String("vcd", "", "dump a waveform of the run to this VCD file")
	powerCSV := flag.String("power", "", "dump the per-cycle switching-activity trace (CSV) to this file")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar, /metrics and /debug on this address (e.g. localhost:6060)")
	flag.Parse()

	if *debugAddr != "" {
		telemetry.ServeDebug(*debugAddr, telemetry.NewRegistry(), telemetry.NewFlightRecorder(0))
	}

	if err := run(*kHex, *vdd, *trials, *vcdPath, *powerCSV); err != nil {
		fmt.Fprintln(os.Stderr, "fourq-sim:", err)
		os.Exit(1)
	}
}

func run(kHex string, vdd float64, trials int, vcdPath, powerCSV string) error {
	k := scalar.Scalar{0x9E3779B97F4A7C15, 0xD1B54A32D192ED03, 0x2545F4914F6CDD1D, 0x27220A95FE9D3E8F}
	if kHex != "" {
		v, ok := new(big.Int).SetString(kHex, 16)
		if !ok {
			return fmt.Errorf("bad scalar %q", kHex)
		}
		k = scalar.FromBig(v)
	}

	fmt.Println("building and scheduling the processor...")
	p, err := core.New(core.Config{})
	if err != nil {
		return err
	}

	if vcdPath != "" {
		f, err := os.Create(vcdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dec := scalar.Decompose(k)
		g := curve.GeneratorAffine()
		if _, _, err := rtl.WriteVCD(p.Program(), rtl.RunInput{
			Inputs:    map[string]fp2.Element{"P.x": g.X, "P.y": g.Y},
			Rec:       scalar.Recode(dec),
			Corrected: dec.Corrected,
		}, f); err != nil {
			return err
		}
		fmt.Printf("wrote waveform to %s\n", vcdPath)
	}

	if powerCSV != "" {
		f, err := os.Create(powerCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		dec := scalar.Decompose(k)
		g := curve.GeneratorAffine()
		act := rtl.NewActivity(p.Program().Makespan)
		if _, _, err := rtl.Run(p.Program(), rtl.RunInput{
			Inputs:    map[string]fp2.Element{"P.x": g.X, "P.y": g.Y},
			Rec:       scalar.Recode(dec),
			Corrected: dec.Corrected,
			Observer:  act.Observe,
		}); err != nil {
			return err
		}
		fmt.Fprintln(f, "cycle,toggles")
		for c, tg := range act.PerCycle {
			fmt.Fprintf(f, "%d,%d\n", c, tg)
		}
		fmt.Printf("wrote switching-activity trace (%d cycles, %d total toggles) to %s\n",
			len(act.PerCycle), act.Toggles, powerCSV)
	}

	fmt.Printf("running [k]G on the RTL model, k = %v\n", k)
	got, st, err := p.ScalarMult(k)
	if err != nil {
		return err
	}
	want := curve.ScalarMult(k, curve.Generator()).Affine()
	if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
		return fmt.Errorf("RTL result differs from the functional library")
	}
	fmt.Println("  result verified bit-exact against the functional library")
	fmt.Printf("  x = %v\n  y = %v\n", got.X, got.Y)
	fmt.Printf("  cycles: %d (issues: %d mul, %d add; %d forwarded reads, %d register writes)\n",
		st.Cycles, st.MulIssues, st.AddIssues, st.ForwardedReads, st.RegWrites)

	if trials > 0 {
		fmt.Printf("verifying %d random scalars on every program...\n", trials)
		if err := p.Verify(trials, 424242); err != nil {
			return err
		}
		fmt.Printf("  %d/%d bit-exact\n", trials, trials)
	}

	m, err := p.PowerModel()
	if err != nil {
		return err
	}
	fmt.Printf("at VDD = %.2f V (paper-comparable %d cycles/SM):\n", vdd, p.CyclesEndoModeled())
	fmt.Printf("  Fmax    %10.2f MHz\n", m.Fmax(vdd)/1e6)
	fmt.Printf("  latency %10.1f us/SM\n", m.Latency(vdd)*1e6)
	fmt.Printf("  energy  %10.3f uJ/SM\n", m.EnergyPerSM(vdd)*1e6)
	fmt.Printf("  rate    %10.0f SM/s\n", m.Throughput(vdd))
	return nil
}

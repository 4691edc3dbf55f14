// Package core assembles the paper's cryptoprocessor end to end: it runs
// the automated flow (trace recording, job-shop scheduling, control-signal
// generation), executes scalar multiplications on the cycle-accurate
// datapath model, and attaches the calibrated power and area models. The
// cmd tools, benchmarks and examples drive everything through this
// package.
package core

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/curve"
	"repro/internal/fp2"
	"repro/internal/gates"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// EndoStepCycles models the cycle cost of Algorithm 1's step 1 when the
// Costello-Longa endomorphisms phi, psi are implemented in hardware
// instead of our doubling-chain substitution (see DESIGN.md): computing
// phi(P), psi(P) and psi(phi(P)) with the published explicit formulas
// costs on the order of 100 GF(p^2) multiplier operations; on the
// one-multiplication-per-cycle datapath that is ~100 issue cycles plus
// pipeline drain and the latency of the short dependent chains.
const EndoStepCycles = 112

// Config parametrizes processor construction.
type Config struct {
	// Resources of the datapath (DefaultResources if zero).
	Resources sched.Resources
	// Scheduling options (MethodList by default).
	Sched sched.Options
	// TraceScalar seeds trace recording; any scalar produces an
	// equivalent schedule (the program is scalar-independent). A fixed
	// default keeps builds deterministic.
	TraceScalar scalar.Scalar
	// FixedBase additionally builds the fixed-base comb microprogram for
	// [k]G (the signing workload): the comb's window tables are baked in
	// as constants and ROM, trading control-ROM area for a far shorter
	// schedule than the generic variable-base program. Executors fall
	// back to the variable-base program when it is disabled.
	FixedBase bool
	// Telemetry, when non-nil, receives wall-clock timing spans for each
	// phase of the build pipeline (functional and endo-workload
	// trace recording and scheduling) on trace track 0, viewable in
	// Perfetto next to the cycle-domain datapath timeline.
	Telemetry *telemetry.Recorder
}

// Processor is a scheduled instance of the FourQ ASIC model.
type Processor struct {
	cfg Config
	// Functional program: full Algorithm 1 including the doubling-chain
	// step 1 (what the RTL actually executes bit-true).
	funcProg   *isa.Program
	funcResult *sched.Result
	// Endo-workload program: step 1 outputs supplied as inputs, matching
	// the paper's workload shape; its makespan + EndoStepCycles is the
	// paper-comparable cycle count.
	endoProg   *isa.Program
	endoResult *sched.Result
	// Fixed-base comb program for [k]G (nil unless Config.FixedBase):
	// window tables in constants + ROM, no external inputs.
	fbProg   *isa.Program
	fbResult *sched.Result
	stats    trace.Stats
	sections []SectionSpan
	// Compiled execution plans (rtl.Compile output) for both programs,
	// built once at New: the paper's chip fixes its ROM/FSM controller at
	// tape-out, and the model mirrors that by discharging validation,
	// hazard analysis and statistics ahead of every run.
	funcCompiled *rtl.CompiledProgram
	endoCompiled *rtl.CompiledProgram
	fbCompiled   *rtl.CompiledProgram
	// Pre-resolved input/output registers ({P.x, P.y} -> {x, y} for the
	// functional program, P0..P3 coordinates for the endo workload), so
	// runs bind operands without building maps.
	funcIn  [2]uint16
	funcOut [2]uint16
	endoIn  [8]uint16
	endoOut [2]uint16
	fbOut   [2]uint16
	// execs pools Executors for the Processor-level convenience entry
	// points; per-worker callers own an Executor instead.
	execs sync.Pool
}

// SectionSpan reports where a trace section landed in the schedule.
type SectionSpan struct {
	Name       string
	Ops        int
	FirstIssue int
	LastDone   int
}

// SectionTiming breaks the functional schedule down by algorithm phase
// (multibase, table build, main loop, finalize), showing how the global
// scheduler overlaps them.
func (p *Processor) SectionTiming() []SectionSpan {
	return p.sections
}

// New builds, schedules and verifies a processor instance.
func New(cfg Config) (*Processor, error) {
	if cfg.Resources == (sched.Resources{}) {
		cfg.Resources = sched.DefaultResources()
	}
	if cfg.TraceScalar.IsZero() {
		cfg.TraceScalar = DefaultTraceScalar()
	}
	p := &Processor{cfg: cfg}

	// phase wraps one pipeline step in a wall-clock telemetry span (a
	// no-op without a recorder).
	phase := func(name string, args map[string]any, f func() error) error {
		var sp *telemetry.Span
		if cfg.Telemetry != nil {
			sp = cfg.Telemetry.StartSpan(0, name, "core.pipeline")
		}
		err := f()
		if sp != nil {
			sp.End(args)
		}
		return err
	}

	g := curve.GeneratorAffine()
	var funcTr *trace.ScalarMultTrace
	if err := phase("trace/functional", nil, func() (err error) {
		funcTr, err = trace.BuildScalarMult(cfg.TraceScalar, g)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: trace: %w", err)
	}
	p.stats = funcTr.Graph.Stats()
	var fr *sched.Result
	if err := phase("schedule/functional", map[string]any{"ops": len(funcTr.Graph.Ops)}, func() (err error) {
		fr, err = sched.Schedule(funcTr.Graph, cfg.Resources, cfg.Sched)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: schedule: %w", err)
	}
	p.funcProg, p.funcResult = fr.Program, fr
	p.sections = sectionSpans(funcTr, fr, cfg.Resources)

	mb := curve.NewMultiBase(curve.Generator())
	var bases [4]curve.Affine
	for j := 0; j < 4; j++ {
		bases[j] = mb.P[j].Affine()
	}
	var endoTr *trace.ScalarMultTrace
	if err := phase("trace/endo", nil, func() (err error) {
		endoTr, err = trace.BuildScalarMultWithBases(cfg.TraceScalar, bases)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: endo trace: %w", err)
	}
	var er *sched.Result
	if err := phase("schedule/endo", map[string]any{"ops": len(endoTr.Graph.Ops)}, func() (err error) {
		er, err = sched.Schedule(endoTr.Graph, cfg.Resources, cfg.Sched)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: endo schedule: %w", err)
	}
	p.endoProg, p.endoResult = er.Program, er

	if cfg.FixedBase {
		var fbTr *trace.ScalarMultTrace
		if err := phase("trace/fixedbase", nil, func() (err error) {
			fbTr, err = trace.BuildFixedBaseScalarMult(cfg.TraceScalar, g)
			return err
		}); err != nil {
			return nil, fmt.Errorf("core: fixed-base trace: %w", err)
		}
		var fbr *sched.Result
		if err := phase("schedule/fixedbase", map[string]any{"ops": len(fbTr.Graph.Ops)}, func() (err error) {
			fbr, err = sched.Schedule(fbTr.Graph, cfg.Resources, cfg.Sched)
			return err
		}); err != nil {
			return nil, fmt.Errorf("core: fixed-base schedule: %w", err)
		}
		p.fbProg, p.fbResult = fbr.Program, fbr
	}

	// Ahead-of-time compilation of both microprograms: one-time
	// validation + static hazard analysis + precomputed statistics.
	if err := phase("compile/functional", map[string]any{"instrs": len(p.funcProg.Instrs)}, func() (err error) {
		p.funcCompiled, err = rtl.Compile(p.funcProg)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: compile: %w", err)
	}
	if err := phase("compile/endo", map[string]any{"instrs": len(p.endoProg.Instrs)}, func() (err error) {
		p.endoCompiled, err = rtl.Compile(p.endoProg)
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: endo compile: %w", err)
	}
	if p.fbProg != nil {
		if err := phase("compile/fixedbase", map[string]any{"instrs": len(p.fbProg.Instrs)}, func() (err error) {
			p.fbCompiled, err = rtl.Compile(p.fbProg)
			return err
		}); err != nil {
			return nil, fmt.Errorf("core: fixed-base compile: %w", err)
		}
	}
	if err := resolveRegs(p.funcCompiled, []string{"P.x", "P.y"}, p.funcIn[:], []string{"x", "y"}, p.funcOut[:]); err != nil {
		return nil, err
	}
	endoNames := make([]string, 0, 8)
	for j := 0; j < 4; j++ {
		endoNames = append(endoNames, fmt.Sprintf("P%d.x", j), fmt.Sprintf("P%d.y", j))
	}
	if err := resolveRegs(p.endoCompiled, endoNames, p.endoIn[:], []string{"x", "y"}, p.endoOut[:]); err != nil {
		return nil, err
	}
	if p.fbCompiled != nil {
		if err := resolveRegs(p.fbCompiled, nil, nil, []string{"x", "y"}, p.fbOut[:]); err != nil {
			return nil, err
		}
	}
	p.execs.New = func() any { return p.NewExecutor() }
	return p, nil
}

// resolveRegs resolves named program inputs and outputs to registers.
func resolveRegs(cp *rtl.CompiledProgram, inNames []string, in []uint16, outNames []string, out []uint16) error {
	if cp.NumInputs() != len(inNames) {
		return fmt.Errorf("core: program has %d inputs, expected %d", cp.NumInputs(), len(inNames))
	}
	for i, name := range inNames {
		r, ok := cp.InputReg(name)
		if !ok {
			return fmt.Errorf("core: program missing input %q", name)
		}
		in[i] = r
	}
	for i, name := range outNames {
		r, ok := cp.OutputReg(name)
		if !ok {
			return fmt.Errorf("core: program missing output %q", name)
		}
		out[i] = r
	}
	return nil
}

// sectionSpans computes the schedule footprint of each trace section.
func sectionSpans(tr *trace.ScalarMultTrace, r *sched.Result, res sched.Resources) []SectionSpan {
	names := []string{"multibase", "tablebuild", "mainloop", "finalize"}
	var out []SectionSpan
	for _, name := range names {
		rng, ok := tr.Sections[name]
		if !ok {
			continue
		}
		span := SectionSpan{Name: name, Ops: rng[1] - rng[0], FirstIssue: 1 << 30}
		for op := rng[0]; op < rng[1]; op++ {
			st := r.Starts[op]
			if st < span.FirstIssue {
				span.FirstIssue = st
			}
			lat := res.AddLatency
			if tr.Graph.Ops[op].Unit == trace.UnitMul {
				lat = res.MulLatency
			}
			if st+lat > span.LastDone {
				span.LastDone = st + lat
			}
		}
		out = append(out, span)
	}
	return out
}

// CyclesFunctional is the cycle count of the bit-true program (includes
// the 192 substitution doublings of step 1).
func (p *Processor) CyclesFunctional() int { return p.funcProg.Makespan }

// CyclesEndoModeled is the paper-comparable cycle count: the scheduled
// makespan of Algorithm 1 with step 1's endomorphism cost modelled.
func (p *Processor) CyclesEndoModeled() int { return p.endoProg.Makespan + EndoStepCycles }

// Program returns the functional microprogram.
func (p *Processor) Program() *isa.Program { return p.funcProg }

// Compiled returns the compiled execution plan of the functional
// microprogram (immutable, safe to share).
func (p *Processor) Compiled() *rtl.CompiledProgram { return p.funcCompiled }

// EndoProgram returns the endo-workload microprogram.
func (p *Processor) EndoProgram() *isa.Program { return p.endoProg }

// ScheduleResult returns the functional scheduling result.
func (p *Processor) ScheduleResult() *sched.Result { return p.funcResult }

// HasFixedBase reports whether the fixed-base comb program was built
// (Config.FixedBase).
func (p *Processor) HasFixedBase() bool { return p.fbCompiled != nil }

// CyclesFixedBase is the cycle count of the fixed-base comb program, or
// 0 when it was not built.
func (p *Processor) CyclesFixedBase() int {
	if p.fbProg == nil {
		return 0
	}
	return p.fbProg.Makespan
}

// FixedBaseProgram returns the fixed-base comb microprogram (nil unless
// Config.FixedBase).
func (p *Processor) FixedBaseProgram() *isa.Program { return p.fbProg }

// FixedBaseScheduleResult returns the fixed-base scheduling result (nil
// unless Config.FixedBase).
func (p *Processor) FixedBaseScheduleResult() *sched.Result { return p.fbResult }

// FixedBaseCompiled returns the compiled fixed-base execution plan (nil
// unless Config.FixedBase).
func (p *Processor) FixedBaseCompiled() *rtl.CompiledProgram { return p.fbCompiled }

// TraceStats returns the op-mix statistics of the functional trace.
func (p *Processor) TraceStats() trace.Stats { return p.stats }

// ScalarMult executes [k]G bit-true on the RTL model and returns the
// affine result plus execution statistics.
func (p *Processor) ScalarMult(k scalar.Scalar) (curve.Affine, rtl.Stats, error) {
	g := curve.GeneratorAffine()
	return p.ScalarMultPoint(k, g)
}

// ScalarMultPoint executes [k]P on the RTL model for an arbitrary base
// point (the program is generic: the base point is an input), on a
// pooled Executor.
func (p *Processor) ScalarMultPoint(k scalar.Scalar, base curve.Affine) (curve.Affine, rtl.Stats, error) {
	e := p.execs.Get().(*Executor)
	defer p.execs.Put(e)
	return e.ScalarMultPoint(k, base)
}

// ScalarMultFixedBase executes [k]G on the fixed-base comb program
// (Config.FixedBase must be set — see HasFixedBase), on a pooled
// Executor. The program has no external inputs: only the recoded scalar
// flows in.
func (p *Processor) ScalarMultFixedBase(k scalar.Scalar) (curve.Affine, rtl.Stats, error) {
	if p.fbCompiled == nil {
		return curve.Affine{}, rtl.Stats{}, fmt.Errorf("core: fixed-base program not built (Config.FixedBase)")
	}
	e := p.execs.Get().(*Executor)
	defer p.execs.Put(e)
	return e.single(ProgramFixedBase, k, curve.Affine{})
}

// ScalarMultInterpreted executes [k]G on the reference cycle-by-cycle
// interpreter (rtl.Interpret), bypassing the compiled plan. It is the
// semantic baseline of the differential equivalence suite and the
// pre-compilation comparison point of the latency benchmark.
func (p *Processor) ScalarMultInterpreted(k scalar.Scalar) (curve.Affine, rtl.Stats, error) {
	g := curve.GeneratorAffine()
	dec := scalar.Decompose(k)
	out, st, err := rtl.Interpret(p.funcProg, rtl.RunInput{
		Inputs:    map[string]fp2.Element{"P.x": g.X, "P.y": g.Y},
		Rec:       scalar.Recode(dec),
		Corrected: dec.Corrected,
	})
	if err != nil {
		return curve.Affine{}, st, err
	}
	return curve.Affine{X: out["x"], Y: out["y"]}, st, nil
}

// ScalarMultEndo executes the endo-workload program: the caller-visible
// result is identical, but step 1's points are computed by the library
// (standing in for the endomorphism unit) and loaded as inputs. It runs
// on a fresh width-1 LaneMachine: a modeling entry point, not a serving
// path.
func (p *Processor) ScalarMultEndo(k scalar.Scalar, base curve.Affine) (curve.Affine, rtl.Stats, error) {
	dec := scalar.Decompose(k)
	mb := curve.NewMultiBase(curve.FromAffine(base))
	bound := make([]rtl.Binding, 8)
	for j := 0; j < 4; j++ {
		a := mb.P[j].Affine()
		bound[2*j] = rtl.Binding{Reg: p.endoIn[2*j], Val: a.X}
		bound[2*j+1] = rtl.Binding{Reg: p.endoIn[2*j+1], Val: a.Y}
	}
	lm := p.endoCompiled.NewLaneMachine(1)
	errs := []error{nil}
	st, err := lm.RunLanes([]rtl.RunInput{{Bound: bound, Rec: scalar.Recode(dec), Corrected: dec.Corrected}}, errs)
	if err == nil {
		err = errs[0]
	}
	if err != nil {
		return curve.Affine{}, rtl.Stats{}, err
	}
	return curve.Affine{X: lm.Reg(0, p.endoOut[0]), Y: lm.Reg(0, p.endoOut[1])}, st, nil
}

// TraceScalarMult executes [k]G bit-true on the reference interpreter
// under the telemetry observer and writes the Chrome trace_event
// timeline of the run (one complete slice per multiplier/adder issue,
// occupancy samples; loadable in Perfetto or chrome://tracing) to w. The result
// is cross-checked against the functional library before the trace is
// written, so a corrupted run cannot produce a plausible-looking
// timeline. It returns the run statistics.
func (p *Processor) TraceScalarMult(k scalar.Scalar, w io.Writer) (rtl.Stats, error) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder()
	tel := rtl.NewRunTelemetry(reg, rec, p.funcProg)
	dec := scalar.Decompose(k)
	g := curve.GeneratorAffine()
	m := p.funcCompiled.NewInterpreter()
	st, err := m.Run(rtl.RunInput{
		Inputs:    map[string]fp2.Element{"P.x": g.X, "P.y": g.Y},
		Rec:       scalar.Recode(dec),
		Corrected: dec.Corrected,
		Observer:  tel.Observe,
	})
	if err != nil {
		return st, err
	}
	tel.Finish(st)
	want := curve.ScalarMult(k, curve.Generator()).Affine()
	if !m.Reg(p.funcOut[0]).Equal(want.X) || !m.Reg(p.funcOut[1]).Equal(want.Y) {
		return st, fmt.Errorf("core: traced run differs from library for k=%v", k)
	}
	return st, rec.WriteTrace(w)
}

// Verify runs nTrials random scalar multiplications on the RTL model and
// cross-checks each against the functional library. It returns the first
// mismatch as an error.
func (p *Processor) Verify(nTrials int, seed int64) error {
	s := uint64(seed)
	next := func() uint64 { // splitmix64
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	for i := 0; i < nTrials; i++ {
		k := scalar.Scalar{next(), next(), next(), next()}
		got, _, err := p.ScalarMult(k)
		if err != nil {
			return fmt.Errorf("core: trial %d: %w", i, err)
		}
		want := curve.ScalarMult(k, curve.Generator()).Affine()
		if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
			return fmt.Errorf("core: trial %d: RTL result differs from library for k=%v", i, k)
		}
	}
	return nil
}

// PowerModel calibrates the Fig. 4 voltage model for this processor's
// paper-comparable cycle count.
func (p *Processor) PowerModel() (*power.Model, error) {
	return power.Calibrate(float64(p.CyclesEndoModeled()))
}

// AreaConfig returns the gates.Config describing this instance.
func (p *Processor) AreaConfig() gates.Config {
	rom, _ := p.funcProg.ROMImage()
	return gates.DefaultConfig(p.funcProg.NumRegs, len(rom))
}

// Area returns the Fig. 3 breakdown, calibrated so this configuration
// reproduces the published 1400 kGE.
func (p *Processor) Area() gates.Breakdown {
	cfg := p.AreaConfig()
	return gates.EstimateCalibrated(cfg, cfg)
}

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
	// phase of the build pipeline (trace recording, scheduling and
	// compilation of every program) on trace track 0, viewable in
	// Perfetto next to the cycle-domain datapath timeline.
	Telemetry *telemetry.Recorder
}

// Processor is a scheduled instance of the FourQ ASIC model.
type Processor struct {
	cfg Config
	// progs holds one built row per entry of the program table (rows
	// Config did not ask for stay zero: compiled == nil).
	progs [NumPrograms]program
	// execs pools Executors for the Processor-level convenience entry
	// points; per-worker callers own an Executor instead.
	execs sync.Pool
}

// program is one built microprogram: its schedule, the compiled
// execution plan (rtl.Compile output, built once at New: the paper's
// chip fixes its ROM/FSM controller at tape-out, and the model mirrors
// that by discharging validation, hazard analysis and statistics ahead
// of every run), its input and output registers resolved in advance so
// runs bind operands without building maps, and the trace statistics
// the reports quote.
type program struct {
	result   *sched.Result
	compiled *rtl.CompiledProgram
	in       []uint16
	out      [2]uint16
	stats    trace.Stats
	sections []SectionSpan
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
	return p.progs[ProgramVariableBase].sections
}

// New builds, schedules and verifies a processor instance: the
// trace -> schedule -> compile -> resolve flow for every program of the
// table that cfg asks for. Every program is traced and scheduled before
// any is compiled, so no compiled plan is held while a later trace is
// recorded: that keeps the build's peak heap, and with it a server's
// resident set, at what the traces alone need.
func New(cfg Config) (*Processor, error) {
	if cfg.Resources == (sched.Resources{}) {
		cfg.Resources = sched.DefaultResources()
	}
	if cfg.TraceScalar.IsZero() {
		cfg.TraceScalar = DefaultTraceScalar()
	}
	p := &Processor{cfg: cfg}
	for id := range programs {
		if en := programs[id].enabled; en != nil && !en(cfg) {
			continue
		}
		if err := p.schedule(ProgramID(id)); err != nil {
			return nil, err
		}
	}
	for id := range p.progs {
		if p.progs[id].result == nil {
			continue
		}
		if err := p.compile(ProgramID(id)); err != nil {
			return nil, err
		}
	}
	p.execs.New = func() any { return p.NewExecutor() }
	return p, nil
}

// phase runs one pipeline step of program id, wrapped in a wall-clock
// telemetry span (a no-op without a recorder).
func (p *Processor) phase(id ProgramID, step string, args map[string]any, f func() error) error {
	name := programs[id].phase
	var sp *telemetry.Span
	if p.cfg.Telemetry != nil {
		sp = p.cfg.Telemetry.StartSpan(0, step+"/"+name, "core.pipeline")
	}
	err := f()
	if sp != nil {
		sp.End(args)
	}
	if err != nil {
		return fmt.Errorf("core: %s %s: %w", name, step, err)
	}
	return nil
}

// schedule records program id's trace and schedules it into its row.
func (p *Processor) schedule(id ProgramID) error {
	var tr *trace.ScalarMultTrace
	if err := p.phase(id, "trace", nil, func() (err error) {
		tr, err = p.Trace(id)
		return err
	}); err != nil {
		return err
	}
	pr := &p.progs[id]
	if err := p.phase(id, "schedule", map[string]any{"ops": len(tr.Graph.Ops)}, func() (err error) {
		pr.result, err = sched.Schedule(tr.Graph, p.cfg.Resources, p.cfg.Sched)
		return err
	}); err != nil {
		return err
	}
	pr.stats, pr.sections = tr.Graph.Stats(), sectionSpans(tr, pr.result, p.cfg.Resources)
	return nil
}

// compile compiles program id's schedule and resolves its registers.
func (p *Processor) compile(id ProgramID) error {
	pr := &p.progs[id]
	if err := p.phase(id, "compile", map[string]any{"instrs": len(pr.result.Program.Instrs)}, func() (err error) {
		pr.compiled, err = rtl.Compile(pr.result.Program)
		return err
	}); err != nil {
		return err
	}
	return pr.resolve(programs[id].inputs)
}

// resolve looks up the registers of the program's named inputs and of
// its x/y outputs.
func (pr *program) resolve(inputs []string) error {
	cp := pr.compiled
	if cp.NumInputs() != len(inputs) {
		return fmt.Errorf("core: program has %d inputs, expected %d", cp.NumInputs(), len(inputs))
	}
	pr.in = make([]uint16, len(inputs))
	for i, name := range inputs {
		r, ok := cp.InputReg(name)
		if !ok {
			return fmt.Errorf("core: program missing input %q", name)
		}
		pr.in[i] = r
	}
	for i, name := range []string{"x", "y"} {
		r, ok := cp.OutputReg(name)
		if !ok {
			return fmt.Errorf("core: program missing output %q", name)
		}
		pr.out[i] = r
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
func (p *Processor) CyclesFunctional() int { return p.Program().Makespan }

// CyclesEndoModeled is the paper-comparable cycle count: the scheduled
// makespan of Algorithm 1 with step 1's endomorphism cost modelled.
func (p *Processor) CyclesEndoModeled() int {
	return p.progs[ProgramEndo].result.Makespan + EndoStepCycles
}

// Program returns the functional microprogram.
func (p *Processor) Program() *isa.Program { return p.ScheduleResult().Program }

// Compiled returns the compiled execution plan of the functional
// microprogram (immutable, safe to share).
func (p *Processor) Compiled() *rtl.CompiledProgram { return p.progs[ProgramVariableBase].compiled }

// ScheduleResult returns the functional scheduling result.
func (p *Processor) ScheduleResult() *sched.Result { return p.progs[ProgramVariableBase].result }

// Row returns program id's schedule and compiled execution plan, both
// nil when the processor was built without it.
func (p *Processor) Row(id ProgramID) (*sched.Result, *rtl.CompiledProgram) {
	return p.progs[id].result, p.progs[id].compiled
}

// Trace records program id's trace for the processor's trace scalar:
// the graph its schedule was solved on.
func (p *Processor) Trace(id ProgramID) (*trace.ScalarMultTrace, error) {
	return programs[id].build(p.cfg.TraceScalar)
}

// HasFixedBase reports whether the fixed-base comb program was built
// (Config.FixedBase).
func (p *Processor) HasFixedBase() bool { return p.FixedBaseCompiled() != nil }

// FixedBaseScheduleResult returns the fixed-base scheduling result (nil
// unless Config.FixedBase).
func (p *Processor) FixedBaseScheduleResult() *sched.Result { return p.progs[ProgramFixedBase].result }

// FixedBaseCompiled returns the compiled fixed-base execution plan (nil
// unless Config.FixedBase).
func (p *Processor) FixedBaseCompiled() *rtl.CompiledProgram {
	return p.progs[ProgramFixedBase].compiled
}

// TraceStats returns the op-mix statistics of the functional trace.
func (p *Processor) TraceStats() trace.Stats { return p.progs[ProgramVariableBase].stats }

// run executes one unvalidated scalar multiplication of program id on
// a pooled Executor (see Executor.ScalarMultBatch).
func (p *Processor) run(id ProgramID, k scalar.Scalar, base curve.Affine) (curve.Affine, rtl.Stats, error) {
	e := p.execs.Get().(*Executor)
	defer p.execs.Put(e)
	return e.single(id, k, base)
}

// ScalarMult executes [k]G bit-true on the RTL model and returns the
// affine result plus execution statistics.
func (p *Processor) ScalarMult(k scalar.Scalar) (curve.Affine, rtl.Stats, error) {
	return p.run(ProgramVariableBase, k, curve.GeneratorAffine())
}

// ScalarMultPoint executes [k]P on the RTL model for an arbitrary base
// point (the program is generic: the base point is an input).
func (p *Processor) ScalarMultPoint(k scalar.Scalar, base curve.Affine) (curve.Affine, rtl.Stats, error) {
	return p.run(ProgramVariableBase, k, base)
}

// ScalarMultFixedBase executes [k]G on the fixed-base comb program, or,
// on a processor built without it (see HasFixedBase), on the
// variable-base program with base G: the executors' fallback.
func (p *Processor) ScalarMultFixedBase(k scalar.Scalar) (curve.Affine, rtl.Stats, error) {
	return p.run(ProgramFixedBase, k, curve.GeneratorAffine())
}

// ScalarMultEndo executes the endo-workload program: the caller-visible
// result is identical, but step 1's points are computed by the library
// (standing in for the endomorphism unit) and loaded as inputs.
func (p *Processor) ScalarMultEndo(k scalar.Scalar, base curve.Affine) (curve.Affine, rtl.Stats, error) {
	return p.run(ProgramEndo, k, base)
}

// ScalarMultInterpreted executes [k]G on the reference cycle-by-cycle
// interpreter (rtl.Interpret), bypassing the compiled plan. It is the
// semantic baseline of the differential equivalence suite and the
// pre-compilation comparison point of the latency benchmark.
func (p *Processor) ScalarMultInterpreted(k scalar.Scalar) (curve.Affine, rtl.Stats, error) {
	return p.interpret(ProgramVariableBase, k, curve.GeneratorAffine(), nil)
}

// interpret runs program id for [k]base on rtl.Interpret, bound the
// way the executor binds a lane, with an optional observer.
func (p *Processor) interpret(id ProgramID, k scalar.Scalar, base curve.Affine, obs func(rtl.Event)) (curve.Affine, rtl.Stats, error) {
	pr := &p.progs[id]
	in := rtl.RunInput{Bound: make([]rtl.Binding, len(pr.in)), Observer: obs}
	for i, r := range pr.in {
		in.Bound[i].Reg = r
	}
	programs[id].bind(k, base, &in)
	out, st, err := rtl.Interpret(pr.result.Program, in)
	if err != nil {
		return curve.Affine{}, st, err
	}
	return curve.Affine{X: out["x"], Y: out["y"]}, st, nil
}

// TraceScalarMult executes [k]G bit-true on the reference interpreter
// under the telemetry observer and writes the Chrome trace_event
// timeline of the run (one complete slice per multiplier/adder issue,
// occupancy samples; loadable in Perfetto or chrome://tracing) to w. The result
// is cross-checked against the functional library before the trace is
// written, so a corrupted run cannot produce a plausible-looking
// timeline. It returns the run statistics.
func (p *Processor) TraceScalarMult(k scalar.Scalar, w io.Writer) (rtl.Stats, error) {
	rec := telemetry.NewRecorder()
	tel := rtl.NewRunTelemetry(telemetry.NewRegistry(), rec, p.Program())
	got, st, err := p.interpret(ProgramVariableBase, k, curve.GeneratorAffine(), tel.Observe)
	if err != nil {
		return st, err
	}
	tel.Finish(st)
	want := curve.ScalarMult(k, curve.Generator()).Affine()
	if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
		return st, fmt.Errorf("core: traced run differs from library for k=%v", k)
	}
	return st, rec.WriteTrace(w)
}

// Verify cross-checks every built program of the table against the
// functional library: nTrials random scalar multiplications of G each,
// on the RTL model. It returns the first mismatch as an error.
func (p *Processor) Verify(nTrials int, seed int64) error {
	s := uint64(seed)
	next := func() uint64 { // splitmix64
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	g := curve.GeneratorAffine()
	for id := range p.progs {
		if p.progs[id].compiled == nil {
			continue
		}
		for i := 0; i < nTrials; i++ {
			k := scalar.Scalar{next(), next(), next(), next()}
			got, _, err := p.run(ProgramID(id), k, g)
			if err != nil {
				return fmt.Errorf("core: %v trial %d: %w", ProgramID(id), i, err)
			}
			want := curve.ScalarMult(k, curve.Generator()).Affine()
			if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
				return fmt.Errorf("core: %v trial %d: RTL result differs from library for k=%v", ProgramID(id), i, k)
			}
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
	prog := p.Program()
	rom, _ := prog.ROMImage()
	return gates.DefaultConfig(prog.NumRegs, len(rom))
}

// Area returns the Fig. 3 breakdown, calibrated so this configuration
// reproduces the published 1400 kGE.
func (p *Processor) Area() gates.Breakdown {
	cfg := p.AreaConfig()
	return gates.EstimateCalibrated(cfg, cfg)
}

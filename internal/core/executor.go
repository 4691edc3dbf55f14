package core

import (
	"errors"
	"fmt"

	"repro/internal/curve"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/sched"
)

// Result-validation errors. ErrOffCurve and ErrDegenerate come from the
// cheap structural checks (no recompute); ErrOracleMismatch from the
// full functional-model recompute. All three mean the datapath produced
// a wrong word — callers (internal/engine) treat them as detected
// faults and retry or degrade rather than deliver the point.
var (
	// ErrOffCurve: the decoded result does not satisfy the curve
	// equation. A random register upset almost never lands back on the
	// curve, so this single check catches the bulk of silent datapath
	// corruption at the cost of a few field multiplications.
	ErrOffCurve = errors.New("core: result validation: point not on curve")
	// ErrDegenerate: the result decoded to the all-zero word, the
	// affine image of a Z=0 projective point (the final inversion of a
	// zeroed denominator). (0,0) is not on the curve, but the distinct
	// error preserves the root cause.
	ErrDegenerate = errors.New("core: result validation: degenerate zero point (Z=0 image)")
	// ErrOracleMismatch: the RTL result differs from the pure
	// functional curve model.
	ErrOracleMismatch = errors.New("core: RTL result differs from functional oracle")
)

// Validate selects the end-of-scalar-multiplication result checks. The
// zero value is ValidateOnCurve: cheap structural validation is the
// default, opting *out* of self-checking is explicit.
type Validate uint8

const (
	// ValidateOnCurve runs the cheap structural checks: the decoded
	// point is non-degenerate and on the curve. No recompute; cost is a
	// handful of field multiplications against thousands of modeled
	// cycles per run.
	ValidateOnCurve Validate = iota
	// ValidateNone delivers the raw datapath output unchecked.
	ValidateNone
	// ValidateOracle adds a full functional-model recompute (the
	// differential oracle). Roughly doubles the cost of a run; catches
	// even corruption that lands on a valid curve point.
	ValidateOracle
)

// String names the validation level (used in reports and logs).
func (v Validate) String() string {
	switch v {
	case ValidateOnCurve:
		return "oncurve"
	case ValidateNone:
		return "none"
	case ValidateOracle:
		return "oracle"
	}
	return fmt.Sprintf("validate(%d)", uint8(v))
}

// ValidateAffine runs the cheap structural result checks on a decoded
// scalar-multiplication output: the hardware analog is an end-of-SM
// self-test that needs no second scalar multiplication.
func ValidateAffine(a curve.Affine) error {
	if a.X.IsZero() && a.Y.IsZero() {
		return ErrDegenerate
	}
	if !a.IsOnCurveAffine() {
		return ErrOffCurve
	}
	return nil
}

// DefaultTraceScalar is the scalar used to seed trace recording when
// Config.TraceScalar is zero: any fixed scalar with all four sub-scalars
// active (the program is scalar-independent, a fixed default keeps
// builds deterministic).
func DefaultTraceScalar() scalar.Scalar {
	return scalar.Scalar{
		0x243F6A8885A308D3, 0x13198A2E03707344,
		0xA4093822299F31D0, 0x082EFA98EC4E6C89,
	}
}

// ConfigKey is the comparable identity of a Config: two Configs with the
// same key build byte-identical processors, so caches (internal/engine)
// can share one built instance between them. Incidental fields that do
// not influence the built program — the telemetry recorder and the
// scheduler progress callback — are deliberately excluded.
type ConfigKey struct {
	Resources   sched.Resources
	Method      sched.Method
	AnnealIters int
	BnBBudget   int64
	BlockSize   int
	SchedSeed   int64
	// Portfolio is comparable by construction (plain integer knobs); it
	// only differentiates keys when Method is MethodPortfolio, but
	// including it unconditionally is harmless (zero elsewhere).
	Portfolio   sched.PortfolioKnobs
	Elide       bool
	TraceScalar scalar.Scalar
	// FixedBase distinguishes processors that additionally carry the
	// fixed-base comb program.
	FixedBase bool
}

// CacheKey derives the comparable cache identity of c, normalizing the
// defaulted fields so that Config{} and an explicitly spelled-out
// default configuration map to the same key.
func (c Config) CacheKey() ConfigKey {
	res := c.Resources
	if res == (sched.Resources{}) {
		res = sched.DefaultResources()
	}
	ts := c.TraceScalar
	if ts.IsZero() {
		ts = DefaultTraceScalar()
	}
	return ConfigKey{
		Resources:   res,
		Method:      c.Sched.Method,
		AnnealIters: c.Sched.AnnealIters,
		BnBBudget:   c.Sched.BnBBudget,
		BlockSize:   c.Sched.BlockSize,
		SchedSeed:   c.Sched.Seed,
		Portfolio:   c.Sched.Portfolio,
		Elide:       c.Sched.ElideWritebacks,
		TraceScalar: ts,
		FixedBase:   c.FixedBase,
	}
}

// Executor is a per-worker handle for running scalar multiplications on
// a shared Processor. The processor's compiled programs are immutable
// after New, and each Executor owns its lockstep lane machines
// (register files, pipeline value slots) plus pre-bound input buffers,
// so any number of Executors may run concurrently over one Processor
// without locking the datapath model, and a steady-state run without an
// injector performs zero heap allocations. Each worker of a pool owns
// exactly one Executor and its (unsynchronized) aggregate run
// statistics. An Executor is not safe for concurrent use.
type Executor struct {
	p      *Processor
	inj    rtl.Injector
	runs   int
	cycles int64
	// lanes[id] is program id's lazily grown lockstep state.
	lanes [NumPrograms]laneState
	// one is the single-lane scratch behind ScalarMultPoint.
	one struct {
		k    [1]scalar.Scalar
		base [1]curve.Affine
		out  [1]curve.Affine
		err  [1]error
	}
}

// laneState is one program's pooled execution state: pre-bound per-lane
// input slots, grown once to the widest batch this executor has seen
// and reused for every run after that, plus the lane machine (built at
// that width on the next lockstep run) and the interpreter handle that
// serves injector runs.
type laneState struct {
	lm *rtl.LaneMachine
	it *rtl.Interpreter
	// bound holds every lane's input bindings, registers resolved, one
	// run of the program's input count per lane; the RunInput Bound
	// slices point into it.
	bound []rtl.Binding
	ins   []rtl.RunInput
}

// NewExecutor returns an independent executor over p. Its lane machines
// are built on first use.
func (p *Processor) NewExecutor() *Executor { return &Executor{p: p} }

// SetInjector attaches a datapath fault injector to every subsequent
// run of this executor (nil detaches). Injected runs go through the
// reference interpreter lane by lane, so a fault lands in exactly one
// lane. The injector is confined to this executor's goroutine; the
// shared processor is never mutated.
func (e *Executor) SetInjector(inj rtl.Injector) { e.inj = inj }

// Runs returns the number of scalar multiplications this executor has
// completed successfully.
func (e *Executor) Runs() int { return e.runs }

// Cycles returns the total modeled datapath cycles this executor has
// executed.
func (e *Executor) Cycles() int64 { return e.cycles }

// laneState returns program id's lane state, grown to hold at least n
// lanes. Growth drops the lane machine (a width change moves every
// structure-of-arrays row), so it only ever widens.
func (e *Executor) laneState(id ProgramID, n int) *laneState {
	ls := &e.lanes[id]
	if len(ls.ins) >= n {
		return ls
	}
	in := e.p.progs[id].in
	ls.lm = nil
	ls.bound = make([]rtl.Binding, n*len(in))
	ls.ins = make([]rtl.RunInput, n)
	for l := range ls.ins {
		b := ls.bound[l*len(in) : (l+1)*len(in)]
		for i, r := range in {
			b[i].Reg = r
		}
		ls.ins[l].Bound = b
	}
	return ls
}

// laneBase is lane l's base point: G when bases is nil.
func laneBase(bases []curve.Affine, l int) curve.Affine {
	if bases == nil {
		return curve.GeneratorAffine()
	}
	return bases[l]
}

// ScalarMultBatch executes [ks[l]]bases[l] for every lane l on program
// prog, in one lockstep pass of its compiled schedule (see
// rtl.LaneMachine; one lane is a width-1 batch), then applies the
// end-of-SM result checks of level v to each lane. The program table
// supplies the plan, registers and per-lane recode/bind step. A program
// with its base baked in (ProgramFixedBase) computes [ks[l]]G and
// ignores bases; a nil bases means G in every lane. On a processor
// built without an optional program (the comb), its lanes run one
// variable-base pass instead.
//
// outs and errs are per lane: errs[l] is nil on success, lane l's
// structural hazard, or its wrapped ErrOffCurve / ErrDegenerate /
// ErrOracleMismatch validation failure (the raw point is then left in
// outs[l] for diagnosis); a failing lane degrades only itself. The
// returned Stats are the program's compiled statistics, identical for
// every lane because the schedule is data-independent (IssuesByOpcode
// is the shared read-only map). The whole-batch error is reserved for
// caller mistakes: no lanes, diverging slice lengths, an unknown
// program.
//
// With an injector attached every lane runs through the reference
// interpreter instead, with the same per-lane contract.
func (e *Executor) ScalarMultBatch(prog ProgramID, ks []scalar.Scalar, bases, outs []curve.Affine, errs []error, v Validate) (rtl.Stats, error) {
	n := len(ks)
	switch {
	case n == 0:
		return rtl.Stats{}, fmt.Errorf("core: lane run with no scalars")
	case prog >= NumPrograms:
		return rtl.Stats{}, fmt.Errorf("core: unknown program %d", prog)
	case len(outs) != n || len(errs) != n || (bases != nil && len(bases) != n):
		return rtl.Stats{}, fmt.Errorf("core: lane slice lengths diverge: %d scalars, %d bases, %d outs, %d errs",
			n, len(bases), len(outs), len(errs))
	}
	if programs[prog].inputs == nil {
		bases = nil // the base is baked in: G
	}
	if e.p.progs[prog].compiled == nil {
		prog = ProgramVariableBase // not built: the variable-base program serves it
	}
	pr, bind := &e.p.progs[prog], programs[prog].bind
	cp, out := pr.compiled, pr.out
	ls := e.laneState(prog, n)
	for l, k := range ks {
		bind(k, laneBase(bases, l), &ls.ins[l])
	}
	if e.inj == nil {
		if ls.lm == nil {
			ls.lm = cp.NewLaneMachine(len(ls.ins))
		}
		if _, err := ls.lm.RunLanes(ls.ins[:n], errs); err != nil {
			return rtl.Stats{}, err
		}
		for l := range ks {
			if errs[l] == nil {
				outs[l] = curve.Affine{X: ls.lm.Reg(l, out[0]), Y: ls.lm.Reg(l, out[1])}
			}
		}
	} else {
		if ls.it == nil {
			ls.it = cp.NewInterpreter()
		}
		for l := range ks {
			in := ls.ins[l]
			in.Injector = e.inj
			if _, errs[l] = ls.it.Run(in); errs[l] == nil {
				outs[l] = curve.Affine{X: ls.it.Reg(out[0]), Y: ls.it.Reg(out[1])}
			}
		}
	}
	st := cp.Stats()
	for l, k := range ks {
		if errs[l] != nil {
			continue
		}
		e.runs++
		e.cycles += int64(st.Cycles)
		if v != ValidateNone {
			errs[l] = check(v, k, laneBase(bases, l), outs[l])
		}
	}
	return st, nil
}

// check applies the end-of-SM result checks of level v (not
// ValidateNone) to out, the datapath's claim for [k]base.
func check(v Validate, k scalar.Scalar, base, out curve.Affine) error {
	if err := ValidateAffine(out); err != nil {
		return fmt.Errorf("%w (k=%v)", err, k)
	}
	if v == ValidateOracle {
		want := curve.ScalarMult(k, curve.FromAffine(base)).Affine()
		if !out.X.Equal(want.X) || !out.Y.Equal(want.Y) {
			return fmt.Errorf("%w (k=%v)", ErrOracleMismatch, k)
		}
	}
	return nil
}

// single runs one unvalidated lane of ScalarMultBatch on the
// executor's scratch, folding the lane's error into the returned error.
func (e *Executor) single(prog ProgramID, k scalar.Scalar, base curve.Affine) (curve.Affine, rtl.Stats, error) {
	o := &e.one
	o.k[0], o.base[0] = k, base
	st, err := e.ScalarMultBatch(prog, o.k[:], o.base[:], o.out[:], o.err[:], ValidateNone)
	if err == nil {
		err = o.err[0]
	}
	if err != nil {
		return curve.Affine{}, rtl.Stats{}, err
	}
	return o.out[0], st, nil
}

// ScalarMultPoint executes [k]P on the variable-base program as a
// width-1 batch, unvalidated. Warm, it allocates nothing; the returned
// Stats carry the program's shared read-only IssuesByOpcode map.
func (e *Executor) ScalarMultPoint(k scalar.Scalar, base curve.Affine) (curve.Affine, rtl.Stats, error) {
	return e.single(ProgramVariableBase, k, base)
}

// ScalarMultLanes executes [ks[l]]bases[l] for every lane l in one
// lockstep pass of the variable-base program, unvalidated: it is
// ScalarMultBatch at ValidateNone, with the same per-lane contract.
func (e *Executor) ScalarMultLanes(ks []scalar.Scalar, bases []curve.Affine, outs []curve.Affine, errs []error) (rtl.Stats, error) {
	return e.ScalarMultBatch(ProgramVariableBase, ks, bases, outs, errs, ValidateNone)
}

// ScalarMultFixedBaseLanes executes [ks[l]]G for every lane l in one
// lockstep pass of the fixed-base comb program, unvalidated: it is
// ScalarMultBatch at ValidateNone, with the same per-lane contract and
// the same fallback when the comb program was not built.
func (e *Executor) ScalarMultFixedBaseLanes(ks []scalar.Scalar, outs []curve.Affine, errs []error) (rtl.Stats, error) {
	return e.ScalarMultBatch(ProgramFixedBase, ks, nil, outs, errs, ValidateNone)
}

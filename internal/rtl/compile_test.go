package rtl

import (
	"errors"
	mrand "math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/fp"
	"repro/internal/fp2"
	"repro/internal/isa"
	"repro/internal/scalar"
	"repro/internal/sched"
)

// boundInputs converts a name->value input map into a Binding list via
// the compiled program's register resolution.
func boundInputs(t testing.TB, cp *CompiledProgram, in map[string]fp2.Element) []Binding {
	t.Helper()
	bound := make([]Binding, 0, len(in))
	for name, v := range in {
		r, ok := cp.InputReg(name)
		if !ok {
			t.Fatalf("input %q not in program", name)
		}
		bound = append(bound, Binding{Reg: r, Val: v})
	}
	return bound
}

// laneWidths are the machine widths the single-input tests run at: the
// degenerate width-1 batch, and one lane of a wider machine.
var laneWidths = []int{1, 4}

// runLane executes one input as a one-lane batch on lm (of any width),
// folding the lane's error into the returned error.
func runLane(lm *LaneMachine, in RunInput) (Stats, error) {
	errs := []error{nil}
	st, err := lm.RunLanes([]RunInput{in}, errs)
	if err != nil {
		return Stats{}, err
	}
	if errs[0] != nil {
		return Stats{}, errs[0]
	}
	return st, nil
}

// TestCompiledMatchesInterpreter is the core differential check: the
// compiled LaneMachine and the reference interpreter must agree on
// outputs AND on the complete statistics structure for a spread of
// random scalars, at width 1 and as one lane of a wider machine.
func TestCompiledMatchesInterpreter(t *testing.T) {
	prog, acc, table, _ := dblAddSetup(t, 21, sched.MethodList)
	inputs := dblAddInputs(acc, table)
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range laneWidths {
		lm := cp.NewLaneMachine(width)
		rng := mrand.New(mrand.NewSource(77))
		for trial := 0; trial < 32; trial++ {
			k := randScalar(rng)
			dec := scalar.Decompose(k)
			in := RunInput{Inputs: inputs, Rec: scalar.Recode(dec), Corrected: dec.Corrected}

			wantOut, wantSt, err := Interpret(prog, in)
			if err != nil {
				t.Fatalf("width %d trial %d: interpreter: %v", width, trial, err)
			}
			gotSt, err := runLane(lm, in)
			if err != nil {
				t.Fatalf("width %d trial %d: compiled: %v", width, trial, err)
			}
			for name := range prog.OutputRegs {
				r, _ := cp.OutputReg(name)
				if !lm.Reg(0, r).Equal(wantOut[name]) {
					t.Fatalf("width %d trial %d: output %q differs between compiled and interpreted", width, trial, name)
				}
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("width %d trial %d: stats differ:\ncompiled:    %+v\ninterpreted: %+v", width, trial, gotSt, wantSt)
			}
		}
	}
}

// TestCompiledMachineReuse checks that a reused lane machine carries no
// state between runs: alternating scalars and bound-input runs, with
// every third run observed on a reused Interpreter handle, must all
// stay correct.
func TestCompiledMachineReuse(t *testing.T) {
	prog, acc, table, _ := dblAddSetup(t, 22, sched.MethodBnB)
	inputs := dblAddInputs(acc, table)
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	bound := boundInputs(t, cp, inputs)
	it := cp.NewInterpreter()
	for _, width := range laneWidths {
		lm := cp.NewLaneMachine(width)
		rng := mrand.New(mrand.NewSource(88))
		for trial := 0; trial < 12; trial++ {
			k := randScalar(rng)
			dec := scalar.Decompose(k)
			in := RunInput{Bound: bound, Rec: scalar.Recode(dec), Corrected: dec.Corrected}
			reg := func(r uint16) fp2.Element { return lm.Reg(0, r) }
			if trial%3 == 2 {
				// Every third run is observed, so it goes to the
				// interpreter handle; neither path may disturb the other.
				in.Observer = func(Event) {}
				if _, err := it.Run(in); err != nil {
					t.Fatalf("width %d trial %d: interpreter: %v", width, trial, err)
				}
				reg = it.Reg
			} else if _, err := runLane(lm, in); err != nil {
				t.Fatalf("width %d trial %d: %v", width, trial, err)
			}
			got := curve.Point{}
			for name, dst := range map[string]*fp2.Element{
				"x": &got.X, "y": &got.Y, "z": &got.Z, "ta": &got.Ta, "tb": &got.Tb,
			} {
				r, _ := cp.OutputReg(name)
				*dst = reg(r)
			}
			if !got.Equal(expectedDblAdd(acc, table, k)) {
				t.Fatalf("width %d trial %d: reused machine produced a wrong result", width, trial)
			}
		}
	}
}

// TestObserverEventParity requires the event stream of an observed run
// on a reused Interpreter handle to be byte-identical — same events,
// same order — to the one-shot reference interpreter's, run after run.
func TestObserverEventParity(t *testing.T) {
	prog, acc, table, k := dblAddSetup(t, 23, sched.MethodList)
	inputs := dblAddInputs(acc, table)
	dec := scalar.Decompose(k)
	collect := func(run func(RunInput) error) []Event {
		var evs []Event
		in := RunInput{
			Inputs:    inputs,
			Rec:       scalar.Recode(dec),
			Corrected: dec.Corrected,
			Observer:  func(e Event) { evs = append(evs, e) },
		}
		if err := run(in); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	want := collect(func(in RunInput) error {
		_, _, err := Interpret(prog, in)
		return err
	})
	if len(want) == 0 {
		t.Fatal("no events observed")
	}
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	it := cp.NewInterpreter()
	for run := 0; run < 2; run++ {
		got := collect(func(in RunInput) error {
			_, err := it.Run(in)
			return err
		})
		if len(got) != len(want) {
			t.Fatalf("run %d: event count %d, interpreter produced %d", run, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d: event %d differs:\nhandle:      %+v\ninterpreter: %+v", run, i, got[i], want[i])
			}
		}
	}
}

// pokeInjector is a minimal fault injector: at one cycle it flips the
// low bit of one register-file word. Used to check that a reused
// Interpreter handle with an Injector behaves identically to the
// one-shot reference interpreter.
type pokeInjector struct {
	cycle int
	reg   uint16
}

func (p *pokeInjector) BeginCycle(cycle int, rf RegFile) {
	if cycle == p.cycle && int(p.reg) < rf.NumRegs() {
		v := rf.Peek(p.reg)
		lo, hi := v.A.Limbs()
		rf.Poke(p.reg, fp2.New(fp.SetLimbs(lo^1, hi), v.B))
	}
}
func (p *pokeInjector) Fetch(_ int, ins isa.Instr) (isa.Instr, bool)      { return ins, true }
func (p *pokeInjector) Forward(_ int, _ uint8, v fp2.Element) fp2.Element { return v }
func (p *pokeInjector) Retire(_ int, _ uint8, _ uint16, v fp2.Element) fp2.Element {
	return v
}

// TestInjectorParity: a faulted run on one reused Interpreter handle
// must agree with a faulted one-shot Interpret run — same (possibly
// corrupted) outputs, same stats, same error — across a sweep of
// injection points.
func TestInjectorParity(t *testing.T) {
	prog, acc, table, k := dblAddSetup(t, 24, sched.MethodList)
	inputs := dblAddInputs(acc, table)
	dec := scalar.Decompose(k)
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.NewInterpreter()
	for cycle := 0; cycle <= prog.Makespan; cycle += 7 {
		for reg := 0; reg < prog.NumRegs; reg += 11 {
			mkIn := func() RunInput {
				return RunInput{
					Inputs:    inputs,
					Rec:       scalar.Recode(dec),
					Corrected: dec.Corrected,
					Injector:  &pokeInjector{cycle: cycle, reg: uint16(reg)},
				}
			}
			wantOut, wantSt, wantErr := Interpret(prog, mkIn())
			gotSt, gotErr := m.Run(mkIn())
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("cycle %d reg %d: error parity broken: handle=%v interpreter=%v", cycle, reg, gotErr, wantErr)
			}
			if gotErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("cycle %d reg %d: errors differ: handle=%v interpreter=%v", cycle, reg, gotErr, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("cycle %d reg %d: stats differ under injection", cycle, reg)
			}
			for name := range prog.OutputRegs {
				r, _ := cp.OutputReg(name)
				if !m.Reg(r).Equal(wantOut[name]) {
					t.Fatalf("cycle %d reg %d: output %q differs under injection", cycle, reg, name)
				}
			}
		}
	}
}

// TestCompileRejectsHazards: the structural corruptions the interpreter
// used to trip over at runtime must now be rejected at Compile time.
func TestCompileRejectsHazards(t *testing.T) {
	prog, _, _, _ := dblAddSetup(t, 25, sched.MethodList)
	corrupt := func(mutate func(p *isa.Program)) error {
		cp := *prog
		cp.Instrs = append([]isa.Instr(nil), prog.Instrs...)
		mutate(&cp)
		_, err := Compile(&cp)
		return err
	}
	if err := corrupt(func(p *isa.Program) {
		for i := range p.Instrs {
			if p.Instrs[i].Unit == isa.UnitMul && p.Instrs[i].Cycle > 0 {
				p.Instrs[i].Cycle = p.Instrs[0].Cycle
				break
			}
		}
	}); err == nil {
		t.Error("double issue not rejected at compile time")
	}
	if err := corrupt(func(p *isa.Program) {
		for i := range p.Instrs {
			if p.Instrs[i].A.Kind == isa.OpFwdMul {
				p.Instrs[i].A = isa.Operand{Kind: isa.OpFwdAdd}
			}
		}
	}); err == nil || !errors.Is(err, ErrHazard) {
		t.Errorf("idle-unit forwarding: want ErrHazard, got %v", err)
	}
	if err := corrupt(func(p *isa.Program) {
		p.NumRegs++
		p.Instrs[len(p.Instrs)-1].A = isa.Operand{Kind: isa.OpReg, Reg: uint16(p.NumRegs - 1)}
	}); err == nil || !errors.Is(err, ErrHazard) {
		t.Errorf("never-written read: want ErrHazard, got %v", err)
	}
	if err := corrupt(func(p *isa.Program) {
		for i := range p.Instrs {
			if p.Instrs[i].Unit == isa.UnitAdd {
				p.Instrs[i].CmdMode = isa.CmdDynSign
				p.Instrs[i].Digit = scalar.Digits + 3
				break
			}
		}
	}); err == nil || !errors.Is(err, ErrHazard) {
		t.Errorf("out-of-range dyn-sign digit: want ErrHazard, got %v", err)
	}
}

// TestBoundInputCount: a Bound list that does not cover the program's
// inputs exactly is rejected on both paths (as the lane's own error on
// the compiled path).
func TestBoundInputCount(t *testing.T) {
	prog, acc, table, k := dblAddSetup(t, 26, sched.MethodList)
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	dec := scalar.Decompose(k)
	bound := boundInputs(t, cp, dblAddInputs(acc, table))[:3]
	in := RunInput{Bound: bound, Rec: scalar.Recode(dec), Corrected: dec.Corrected}
	for _, width := range laneWidths {
		if _, err := runLane(cp.NewLaneMachine(width), in); err == nil {
			t.Errorf("width %d: lane machine accepted a short Bound list", width)
		}
	}
	if _, _, err := Interpret(prog, in); err == nil {
		t.Error("interpreter accepted a short Bound list")
	}
}

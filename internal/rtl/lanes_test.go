package rtl

import (
	"errors"
	"fmt"
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

// laneFixture builds one DBLADD program with per-lane inputs: each lane
// gets its own accumulator, table and scalar, so the lockstep run mixes
// genuinely independent work.
type laneFixture struct {
	cp     *CompiledProgram
	accs   []curve.Point
	tables [][8]curve.Cached
	ks     []scalar.Scalar
	ins    []RunInput
}

func newLaneFixture(t testing.TB, seed int64, lanes int) *laneFixture {
	t.Helper()
	prog, _, _, _ := dblAddSetup(t, seed, sched.MethodList)
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	f := &laneFixture{cp: cp}
	rng := mrand.New(mrand.NewSource(seed * 7))
	for l := 0; l < lanes; l++ {
		p := curve.ScalarMultBinary(randScalar(rng), curve.Generator())
		table := curve.BuildTable(curve.NewMultiBase(p))
		acc := curve.ScalarMultBinary(randScalar(rng), curve.Generator())
		k := randScalar(rng)
		dec := scalar.Decompose(k)
		f.accs = append(f.accs, acc)
		f.tables = append(f.tables, table)
		f.ks = append(f.ks, k)
		f.ins = append(f.ins, RunInput{
			Bound:     boundInputs(t, cp, dblAddInputs(acc, table)),
			Rec:       scalar.Recode(dec),
			Corrected: dec.Corrected,
		})
	}
	return f
}

// TestLaneMachineParity is the lockstep differential: an L-lane run
// must produce, for every lane, outputs and Stats byte-identical to L
// independent reference-interpreter runs — across several reuses of the
// same lane machine.
func TestLaneMachineParity(t *testing.T) {
	const lanes = 5
	for trial := 0; trial < 4; trial++ {
		f := newLaneFixture(t, int64(40+trial), lanes)
		// Run the same machine twice per trial to cover lane-machine
		// reuse (pooled machines are the steady state upstack).
		lm := f.cp.NewLaneMachine(lanes)
		for reuse := 0; reuse < 2; reuse++ {
			errs := make([]error, lanes)
			gotSt, err := lm.RunLanes(f.ins, errs)
			if err != nil {
				t.Fatalf("trial %d reuse %d: %v", trial, reuse, err)
			}
			m := f.cp.NewInterpreter()
			for l := 0; l < lanes; l++ {
				if errs[l] != nil {
					t.Fatalf("trial %d lane %d: unexpected lane error: %v", trial, l, errs[l])
				}
				wantSt, err := m.Run(f.ins[l])
				if err != nil {
					t.Fatalf("trial %d lane %d: interpreter: %v", trial, l, err)
				}
				if !reflect.DeepEqual(gotSt, wantSt) {
					t.Fatalf("trial %d lane %d: stats differ:\nlanes:       %+v\ninterpreter: %+v", trial, l, gotSt, wantSt)
				}
				for name := range f.cp.Program().OutputRegs {
					r, _ := f.cp.OutputReg(name)
					if !lm.Reg(l, r).Equal(m.Reg(r)) {
						t.Fatalf("trial %d lane %d: output %q differs from the interpreter", trial, l, name)
					}
				}
				// And the library-level truth, so lockstep cannot drift in
				// sync with a broken interpreter.
				want := expectedDblAdd(f.accs[l], f.tables[l], f.ks[l])
				got := curve.Point{}
				for name, dst := range map[string]*fp2.Element{
					"x": &got.X, "y": &got.Y, "z": &got.Z, "ta": &got.Ta, "tb": &got.Tb,
				} {
					r, _ := f.cp.OutputReg(name)
					*dst = lm.Reg(l, r)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d lane %d: lockstep result differs from library", trial, l)
				}
			}
		}
	}
}

// TestLaneMachinePartialBatch runs fewer lanes than the machine's width
// (the engine's partial-final-batch shape) and checks parity with the
// interpreter for each.
func TestLaneMachinePartialBatch(t *testing.T) {
	const width = 8
	for _, n := range []int{1, 3, width} {
		f := newLaneFixture(t, 90+int64(n), n)
		lm := f.cp.NewLaneMachine(width)
		errs := make([]error, n)
		if _, err := lm.RunLanes(f.ins, errs); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		m := f.cp.NewInterpreter()
		for l := 0; l < n; l++ {
			if errs[l] != nil {
				t.Fatalf("n=%d lane %d: %v", n, l, errs[l])
			}
			if _, err := m.Run(f.ins[l]); err != nil {
				t.Fatal(err)
			}
			for name := range f.cp.Program().OutputRegs {
				r, _ := f.cp.OutputReg(name)
				if !lm.Reg(l, r).Equal(m.Reg(r)) {
					t.Fatalf("n=%d lane %d: output %q differs", n, l, name)
				}
			}
		}
	}
}

// checkProgram is a hand-built schedule with a runtime-selected table
// read whose candidate registers are only partially written, forcing
// Compile to keep the residual written-bits check (trackWritten):
//
//	cycle 0: add r4 := a+b     (T[0] coord 0, retires cycle 1)
//	cycle 1: add r5 := a+a     (T[0] coord 1, retires cycle 2)
//	cycle 3: add r2 := tbl(digit 0, coord 0) + a   (retires cycle 4)
//
// T[1] maps to {r2, r3}: r3 is never written and r2 only at cycle 4 —
// after the read — so a digit selecting index 1 must fail at runtime,
// while index 0 (either sign) succeeds.
func checkProgram(t testing.TB) (*CompiledProgram, RunInput) {
	t.Helper()
	p := &isa.Program{
		NumRegs:    40,
		Makespan:   4,
		MulLatency: 3,
		AddLatency: 1,
		InputRegs:  map[string]uint16{"a": 0, "b": 1},
		OutputRegs: map[string]uint16{"out": 2},
		Instrs: []isa.Instr{
			{Cycle: 0, Unit: isa.UnitAdd, A: isa.Operand{Kind: isa.OpReg, Reg: 0}, B: isa.Operand{Kind: isa.OpReg, Reg: 1}, Dst: 4, Label: "t0xy:=a+b"},
			{Cycle: 1, Unit: isa.UnitAdd, A: isa.Operand{Kind: isa.OpReg, Reg: 0}, B: isa.Operand{Kind: isa.OpReg, Reg: 0}, Dst: 5, Label: "t0yx:=a+a"},
			{Cycle: 3, Unit: isa.UnitAdd, A: isa.Operand{Kind: isa.OpTable, Coord: 0, Digit: 0}, B: isa.Operand{Kind: isa.OpReg, Reg: 0}, Dst: 2, Label: "out:=tbl+a"},
		},
	}
	for u := 0; u < 8; u++ {
		for c := 0; c < 4; c++ {
			p.TableRegs[u][c] = uint16(8 + u*4 + c)
		}
	}
	p.TableRegs[0][0] = 4
	p.TableRegs[0][1] = 5
	p.TableRegs[1][0] = 2 // written only after the read retires
	p.TableRegs[1][1] = 3 // never written
	cp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.trackWritten {
		t.Fatal("fixture broken: program compiled without residual checks")
	}
	in := RunInput{Inputs: map[string]fp2.Element{
		"a": fp2.New(fp.SetLimbs(3, 0), fp.SetLimbs(1, 0)),
		"b": fp2.New(fp.SetLimbs(5, 0), fp.SetLimbs(2, 0)),
	}}
	return cp, in
}

// TestLaneMachineErrorIsolation drives one lane into a residual-check
// failure: that lane's error must be byte-identical to a width-1 run's
// (and a hazard to the interpreter too), and every other lane's output
// must be untouched.
func TestLaneMachineErrorIsolation(t *testing.T) {
	cp, base := checkProgram(t)
	mkIn := func(index uint8, sign int8) RunInput {
		in := base
		in.Rec.Index[0] = index
		in.Rec.Sign[0] = sign
		return in
	}
	ins := []RunInput{
		mkIn(0, 1),  // reads r4: fine
		mkIn(1, 1),  // reads r2: unwritten at cycle 3 -> lane error
		mkIn(0, -1), // negative sign swaps to r5: fine
	}
	lm := cp.NewLaneMachine(len(ins))
	errs := make([]error, len(ins))
	if _, err := lm.RunLanes(ins, errs); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy lanes errored: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil || !errors.Is(errs[1], ErrHazard) {
		t.Fatalf("faulty lane error = %v, want an ErrHazard", errs[1])
	}
	outReg, _ := cp.OutputReg("out")
	m := cp.NewInterpreter()
	for _, l := range []int{0, 2} {
		if _, err := m.Run(ins[l]); err != nil {
			t.Fatalf("interpreter reference for lane %d: %v", l, err)
		}
		if !lm.Reg(l, outReg).Equal(m.Reg(outReg)) {
			t.Fatalf("lane %d output corrupted by its neighbour's failure", l)
		}
	}
	if _, err := m.Run(ins[1]); !errors.Is(err, ErrHazard) {
		t.Fatalf("interpreter on the faulty lane's input: err = %v, want an ErrHazard", err)
	}
	// Error parity: the failing lane's error string matches what a
	// width-1 machine returns for the same input.
	_, wantErr := runLane(cp.NewLaneMachine(1), ins[1])
	if wantErr == nil {
		t.Fatal("width-1 reference unexpectedly succeeded")
	}
	if errs[1].Error() != wantErr.Error() {
		t.Fatalf("lane error %q != width-1 error %q", errs[1], wantErr)
	}
}

// TestMachineRunResetsResidualState is the reuse-safety regression for
// pooled lane machines: consecutive runs on one machine must fully
// reset the written bits and leave no stale pipeline values behind — a
// success must not leak its write set into the next run's residual
// checks, and an aborted run must not corrupt the run after it. Checked
// at width 1 and as one lane of a wider machine.
func TestMachineRunResetsResidualState(t *testing.T) {
	cp, base := checkProgram(t)
	good := base
	good.Rec.Index[0], good.Rec.Sign[0] = 0, 1
	bad := base
	bad.Rec.Index[0], bad.Rec.Sign[0] = 1, 1

	outReg, _ := cp.OutputReg("out")
	for _, width := range laneWidths {
		lm := cp.NewLaneMachine(width)
		// Run 1 succeeds and, in doing so, writes r2 (= T[1] coord 0).
		if _, err := runLane(lm, good); err != nil {
			t.Fatal(err)
		}
		// Run 2 selects T[1]: with correctly reset written bits this reads
		// never-written r2 and must fail; a machine leaking run 1's write
		// set would wrongly succeed on run 1's stale value.
		if _, err := runLane(lm, bad); err == nil || !errors.Is(err, ErrHazard) {
			t.Fatalf("width %d: reused machine did not reset written bits: err = %v", width, err)
		}
		// Run 3 after the aborted run must be bit-identical to a fresh
		// machine: no pipeline value slot or register residue.
		if _, err := runLane(lm, good); err != nil {
			t.Fatal(err)
		}
		fresh := cp.NewLaneMachine(width)
		if _, err := runLane(fresh, good); err != nil {
			t.Fatal(err)
		}
		if !lm.Reg(0, outReg).Equal(fresh.Reg(0, outReg)) {
			t.Fatalf("width %d: run after an aborted run differs from a fresh machine", width)
		}
	}
}

// TestLaneMachineRejectsMisuse covers the whole-run error paths: no
// lanes, overflowing the width, mismatched error slice, and inputs that
// force the interpreter.
func TestLaneMachineRejectsMisuse(t *testing.T) {
	f := newLaneFixture(t, 61, 2)
	lm := f.cp.NewLaneMachine(2)
	if _, err := lm.RunLanes(nil, nil); err == nil {
		t.Fatal("empty lane run must error")
	}
	three := []RunInput{f.ins[0], f.ins[1], f.ins[0]}
	if _, err := lm.RunLanes(three, make([]error, 3)); err == nil {
		t.Fatal("overflowing the lane width must error")
	}
	if _, err := lm.RunLanes(f.ins, make([]error, 1)); err == nil {
		t.Fatal("mismatched errs length must error")
	}
	observed := []RunInput{f.ins[0], f.ins[1]}
	observed[1].Observer = func(Event) {}
	if _, err := lm.RunLanes(observed, make([]error, 2)); err == nil {
		t.Fatal("Observer on a lane must reject the lockstep run")
	}
}

// TestLaneMachineZeroAllocs pins the steady-state guarantee: a warm
// lockstep run with caller-owned buffers allocates nothing, at width 1
// (how a lone scalar multiplication runs) and at width 4.
func TestLaneMachineZeroAllocs(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("width%d", lanes), func(t *testing.T) {
			f := newLaneFixture(t, 71, lanes)
			lm := f.cp.NewLaneMachine(lanes)
			errs := make([]error, lanes)
			if _, err := lm.RunLanes(f.ins, errs); err != nil { // warm-up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := lm.RunLanes(f.ins, errs); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("RunLanes allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// FuzzLaneMachineParity cross-checks lockstep execution against the
// reference interpreter for random lane counts and scalars. The seed
// corpus covers the degenerate single lane and the full width.
func FuzzLaneMachineParity(f *testing.F) {
	const maxLanes = 8
	f.Add(uint8(1), uint64(0x5eed))
	f.Add(uint8(maxLanes), uint64(0xface))
	prog, acc, table, _ := dblAddSetup(f, 123, sched.MethodList)
	cp, err := Compile(prog)
	if err != nil {
		f.Fatal(err)
	}
	bound := boundInputs(f, cp, dblAddInputs(acc, table))
	lm := cp.NewLaneMachine(maxLanes)
	m := cp.NewInterpreter()
	f.Fuzz(func(t *testing.T, lanes uint8, seed uint64) {
		n := int(lanes%maxLanes) + 1
		s := seed
		next := func() uint64 { // splitmix64
			s += 0x9E3779B97F4A7C15
			z := s
			z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
			z = (z ^ z>>27) * 0x94D049BB133111EB
			return z ^ z>>31
		}
		ins := make([]RunInput, n)
		for l := 0; l < n; l++ {
			k := scalar.Scalar{next(), next(), next(), next()}
			dec := scalar.Decompose(k)
			ins[l] = RunInput{Bound: bound, Rec: scalar.Recode(dec), Corrected: dec.Corrected}
		}
		errs := make([]error, n)
		gotSt, err := lm.RunLanes(ins, errs)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < n; l++ {
			wantSt, err := m.Run(ins[l])
			if err != nil || errs[l] != nil {
				t.Fatalf("lane %d: errors %v / %v", l, errs[l], err)
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("lane %d: stats diverge", l)
			}
			for name := range prog.OutputRegs {
				r, _ := cp.OutputReg(name)
				if !lm.Reg(l, r).Equal(m.Reg(r)) {
					t.Fatalf("lane %d: output %q diverges from the interpreter", l, name)
				}
			}
		}
	})
}

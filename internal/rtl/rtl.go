// Package rtl is a cycle-accurate model of the proposed cryptoprocessor
// datapath (Fig. 1 of the paper): a 4-read/2-write register file, a
// pipelined Karatsuba GF(p^2) multiplier (executed bit-exactly through
// the Algorithm 2 stage model), a GF(p^2) adder/subtractor with per-lane
// commands, forwarding paths from both unit outputs, and an FSM sequencer
// that walks the scheduled microprogram one cycle at a time.
//
// The model is also a hazard checker: it fails loudly on structural
// violations (double issue, port over-subscription, reads of never
// written registers, forwarding from an idle unit), so a corrupted
// schedule cannot silently produce a result.
//
// Execution comes in two forms:
//
//   - Compile + LaneMachine: an ahead-of-time pass (Compile) validates
//     the immutable program once, hoists every data-independent check
//     and statistic out of the cycle loop, and produces a dense
//     execution plan; a reusable LaneMachine then runs it for 1..Width
//     scalar multiplications in lockstep with zero steady-state heap
//     allocations. This mirrors the paper's hardware, whose ROM/FSM
//     controller is fixed at tape-out: the schedule's structural
//     properties are facts of the program, not of any particular run
//     (Section III-C), so one SM is exactly a width-1 batch. It is the
//     only executor of a CompiledProgram.
//   - The interpreter (Interpret, or a reusable Interpreter from
//     CompiledProgram.NewInterpreter): the reference cycle-by-cycle
//     model, which decodes and checks every instruction as it executes.
//     It is the semantic baseline the compiled plan is differentially
//     tested against, and the path every observed (Observer) or
//     fault-injected (Injector) run takes.
//
// Run remains the convenience entry point: it compiles the program and
// executes it on a width-1 LaneMachine, or on the interpreter when an
// Observer or Injector is attached.
package rtl

import (
	"errors"
	"fmt"

	"repro/internal/fp"
	"repro/internal/fp2"
	"repro/internal/isa"
	"repro/internal/scalar"
)

// Binding is one register-bound external input: the allocation-free
// alternative to RunInput.Inputs. Resolve the register once with
// CompiledProgram.InputReg and reuse the binding across runs.
type Binding struct {
	Reg uint16
	Val fp2.Element
}

// RunInput carries the per-run data: external inputs, and the recoded
// scalar digits + correction flag that drive the runtime table indexing
// and dynamic sign commands.
type RunInput struct {
	Inputs map[string]fp2.Element
	// Bound, when non-nil, supplies the external inputs by register
	// instead of by name and takes precedence over Inputs. It must cover
	// every program input exactly once (resolve registers with
	// CompiledProgram.InputReg); the steady-state serving path uses it to
	// avoid building a map per scalar multiplication.
	Bound     []Binding
	Rec       scalar.Recoded
	Corrected bool
	// Observer, when non-nil, receives one Event per issue and per
	// write-back, in cycle order. Used by the VCD dumper and the
	// switching-activity model. Forces the interpreted path.
	Observer func(Event)
	// Injector, when non-nil, is consulted at the fault-injection hook
	// points of every cycle (see the Injector interface for the exact
	// ordering). Used by internal/fault to model SEUs, stuck-at faults
	// and control-ROM corruption. Forces the interpreted path.
	Injector Injector
}

// EventKind tags an observed datapath event.
type EventKind uint8

const (
	// EvIssue: an operation entered a functional unit this cycle.
	EvIssue EventKind = iota
	// EvWriteback: a result completed and was written to the register file.
	EvWriteback
)

// Event is one observed datapath transaction.
type Event struct {
	Kind  EventKind
	Cycle int
	Unit  uint8 // isa.UnitMul or isa.UnitAdd
	Dst   uint16
	// A, B are the resolved operand values (EvIssue only).
	A, B fp2.Element
	// FwdA, FwdB report operands sourced from the forwarding network
	// instead of the register file (EvIssue only).
	FwdA, FwdB bool
	// Value is the produced result (EvWriteback only).
	Value fp2.Element
	// Elided marks a write-back absorbed by the elision pass: the value
	// left the unit's output port but never reached the register file
	// (EvWriteback only).
	Elided bool
	// Label is the debug label of the instruction (EvIssue only).
	Label string
}

// Stats summarizes an execution.
//
// Every field is a property of the schedule, not of the data flowing
// through it (the fixed-FSM design's side-channel guarantee), so
// Compile precomputes the whole struct once. On the compiled
// (LaneMachine) path IssuesByOpcode is a single map shared by every run
// of the program — treat it as read-only.
type Stats struct {
	Cycles         int
	MulIssues      int
	AddIssues      int
	RegReads       int
	RegWrites      int
	ElidedWrites   int
	ForwardedReads int
	// ROMReads counts operands served by the fixed-base window ROM's
	// dedicated read port (OpROM); they consume no register-file ports.
	ROMReads int
	// MulUtilization is MulIssues / Cycles.
	MulUtilization float64
	// AddUtilization is AddIssues / Cycles.
	AddUtilization float64
	// StallCycles counts cycles in which neither unit issued (pipeline
	// bubbles waiting on latency or port limits).
	StallCycles int
	// ReadPortPressure[k] counts cycles that consumed exactly k of the 4
	// register-file read ports.
	ReadPortPressure [5]int
	// WritePortPressure[k] counts cycles that consumed exactly k of the
	// 2 register-file write ports.
	WritePortPressure [3]int
	// IssuesByOpcode counts issues per opcode mnemonic ("mul", "add",
	// "sub", "addsub.mixed", "addsub.dyn").
	IssuesByOpcode map[string]int
}

// Opcode ids: the dense index space behind the IssuesByOpcode mnemonics.
// The interpreter counts issues in a fixed-size array indexed by these
// and materializes the map once at run end; the compiled path counts
// them at Compile time.
const (
	opcodeMul = iota
	opcodeAdd
	opcodeSub
	opcodeAddSubMixed
	opcodeAddSubDyn
	numOpcodes
)

var opcodeNames = [numOpcodes]string{"mul", "add", "sub", "addsub.mixed", "addsub.dyn"}

// opcodeID returns the dense opcode index for an instruction.
func opcodeID(ins isa.Instr) uint8 {
	if ins.Unit == isa.UnitMul {
		return opcodeMul
	}
	if ins.CmdMode == isa.CmdDynSign {
		return opcodeAddSubDyn
	}
	switch {
	case ins.CmdRe == isa.CmdAdd && ins.CmdIm == isa.CmdAdd:
		return opcodeAdd
	case ins.CmdRe == isa.CmdSub && ins.CmdIm == isa.CmdSub:
		return opcodeSub
	}
	return opcodeAddSubMixed
}

// Opcode returns the mnemonic used as the IssuesByOpcode key for an
// instruction: the unit plus, for the adder, how its lane commands are
// produced.
func Opcode(ins isa.Instr) string { return opcodeNames[opcodeID(ins)] }

// ErrHazard wraps all structural violations detected during execution
// (and, for schedule-level hazards, at Compile time).
var ErrHazard = errors.New("rtl: structural hazard")

type pipeSlot struct {
	valid      bool
	completion int
	dst        uint16
	noWB       bool
	value      fp2.Element
}

// Interpreter is a reusable handle on the reference interpreter. Every
// Run resets its written bits, pipeline slots and statistics (a stale
// register word is unreadable until rewritten), so fault campaigns and
// observed runs reuse one handle instead of rebuilding its buffers and
// per-cycle instruction buckets per run. An Interpreter is NOT safe for
// concurrent use.
type Interpreter struct {
	prog         *isa.Program
	regs         []fp2.Element
	written      []bool
	in           RunInput
	mulPipe      []pipeSlot // in-flight multiplier results
	addPipe      []pipeSlot
	byCycle      [][]isa.Instr
	opcodeCounts [numOpcodes]int
	stats        Stats
}

// newInterpreter builds interpreter state for p. byCycle groups the
// instruction stream by issue cycle, preserving the program's intra-cycle
// order (which fixes the observer event order within a cycle).
func newInterpreter(p *isa.Program, byCycle [][]isa.Instr) *Interpreter {
	return &Interpreter{
		prog:    p,
		regs:    make([]fp2.Element, p.NumRegs),
		written: make([]bool, p.NumRegs),
		byCycle: byCycle,
	}
}

// NewInterpreter returns a reusable interpreter over the compiled
// program's source, sharing its per-cycle instruction buckets.
func (cp *CompiledProgram) NewInterpreter() *Interpreter {
	return newInterpreter(cp.prog, cp.byCycle)
}

// Reg reads a register-file word (no port accounting) after Run;
// resolve output registers once with CompiledProgram.OutputReg.
func (m *Interpreter) Reg(r uint16) fp2.Element { return m.regs[r] }

// buildByCycle groups instructions by issue cycle in program order.
func buildByCycle(p *isa.Program) [][]isa.Instr {
	byCycle := make([][]isa.Instr, p.Makespan+1)
	for _, ins := range p.Instrs {
		byCycle[ins.Cycle] = append(byCycle[ins.Cycle], ins)
	}
	return byCycle
}

// Run executes the program and returns the named outputs. It is a thin
// compile-then-execute wrapper: the program is validated and planned
// once (Compile), then run on a width-1 LaneMachine — or on the
// reference interpreter when an Observer or Injector is attached.
// Callers executing the same program many times should Compile once and
// reuse a LaneMachine instead.
func Run(p *isa.Program, in RunInput) (map[string]fp2.Element, Stats, error) {
	cp, err := Compile(p)
	if err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	var reg func(uint16) fp2.Element
	if in.Observer != nil || in.Injector != nil {
		m := cp.NewInterpreter()
		st, err = m.Run(in)
		reg = m.Reg
	} else {
		lm := cp.NewLaneMachine(1)
		errs := []error{nil}
		if st, err = lm.RunLanes([]RunInput{in}, errs); err == nil {
			err = errs[0]
		}
		reg = func(r uint16) fp2.Element { return lm.Reg(0, r) }
	}
	if err != nil {
		return nil, Stats{}, err
	}
	// The compiled path shares one opcode map across runs; Run's contract
	// predates that, so hand each caller an independent copy.
	st.IssuesByOpcode = cloneOpcodeMap(st.IssuesByOpcode)
	out := make(map[string]fp2.Element, len(p.OutputRegs))
	for name, r := range p.OutputRegs {
		out[name] = reg(r)
	}
	return out, st, nil
}

func cloneOpcodeMap(src map[string]int) map[string]int {
	dst := make(map[string]int, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// Interpret executes the program on the reference cycle-by-cycle
// interpreter, bypassing the compiled plan entirely. It is the semantic
// baseline: the differential suite runs scalars through both Interpret
// and the compiled LaneMachine and requires identical outputs and
// statistics. It allocates per call; use Compile + LaneMachine for
// steady-state execution, or CompiledProgram.NewInterpreter for
// repeated observed or fault-injected runs.
func Interpret(p *isa.Program, in RunInput) (map[string]fp2.Element, Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}
	m := newInterpreter(p, buildByCycle(p))
	st, err := m.Run(in)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make(map[string]fp2.Element, len(p.OutputRegs))
	for name, reg := range p.OutputRegs {
		out[name] = m.regs[reg]
	}
	return out, st, nil
}

// Run executes one interpreted pass over the program, resetting the
// interpreter's reusable buffers first. The program was validated when
// the handle was built. The returned Stats carry a fresh IssuesByOpcode
// map per run.
func (m *Interpreter) Run(in RunInput) (Stats, error) {
	p := m.prog
	m.in = in
	m.stats = Stats{}
	for i := range m.opcodeCounts {
		m.opcodeCounts[i] = 0
	}
	m.mulPipe = m.mulPipe[:0]
	m.addPipe = m.addPipe[:0]
	for i := range m.written {
		m.written[i] = false
	}
	// Program load: constants and inputs.
	for _, c := range p.ConstRegs {
		m.regs[c.Reg] = fp2.New(fp.SetLimbs(c.Value[0], c.Value[1]), fp.SetLimbs(c.Value[2], c.Value[3]))
		m.written[c.Reg] = true
	}
	if in.Bound != nil {
		if len(in.Bound) != len(p.InputRegs) {
			return Stats{}, fmt.Errorf("rtl: %d bound inputs for a program with %d inputs", len(in.Bound), len(p.InputRegs))
		}
		for _, b := range in.Bound {
			if int(b.Reg) >= len(m.regs) {
				return Stats{}, fmt.Errorf("rtl: bound input register %d out of range", b.Reg)
			}
			m.regs[b.Reg] = b.Val
			m.written[b.Reg] = true
		}
	} else {
		for name, reg := range p.InputRegs {
			v, ok := in.Inputs[name]
			if !ok {
				return Stats{}, fmt.Errorf("rtl: missing input %q", name)
			}
			m.regs[reg] = v
			m.written[reg] = true
		}
	}

	mulII := p.MulII
	if mulII <= 0 {
		mulII = 1
	}
	lastMulIssue := -1 << 30

	for cycle := 0; cycle <= p.Makespan; cycle++ {
		if in.Injector != nil {
			in.Injector.BeginCycle(cycle, regWindow{m})
		}
		// Write-back phase: results completing this cycle reach the
		// register file (write-through) and the forwarding ports.
		mulOut, addOut, err := m.writeback(cycle)
		if err != nil {
			return Stats{}, err
		}
		// Issue phase.
		reads := 0
		var mulIssued, addIssued bool
		for _, ins := range m.byCycle[cycle] {
			if in.Injector != nil {
				var ok bool
				if ins, ok = in.Injector.Fetch(cycle, ins); !ok {
					continue // corrupted valid bit: the slot never issues
				}
			}
			a, ra, err := m.resolve(cycle, ins, ins.A, mulOut, addOut)
			if err != nil {
				return Stats{}, fmt.Errorf("cycle %d op %q A: %w", cycle, ins.Label, err)
			}
			b, rb, err := m.resolve(cycle, ins, ins.B, mulOut, addOut)
			if err != nil {
				return Stats{}, fmt.Errorf("cycle %d op %q B: %w", cycle, ins.Label, err)
			}
			reads += ra + rb
			m.opcodeCounts[opcodeID(ins)]++
			if m.in.Observer != nil {
				m.in.Observer(Event{
					Kind: EvIssue, Cycle: cycle, Unit: ins.Unit, Dst: ins.Dst,
					A: a, B: b, FwdA: isFwd(ins.A), FwdB: isFwd(ins.B), Label: ins.Label,
				})
			}
			switch ins.Unit {
			case isa.UnitMul:
				if mulIssued {
					return Stats{}, fmt.Errorf("%w: multiplier double issue at cycle %d", ErrHazard, cycle)
				}
				if cycle < lastMulIssue+mulII {
					return Stats{}, fmt.Errorf("%w: multiplier II=%d violated at cycle %d", ErrHazard, mulII, cycle)
				}
				lastMulIssue = cycle
				mulIssued = true
				m.stats.MulIssues++
				result := fp2.MulAlg2(a, b)
				m.mulPipe = append(m.mulPipe, pipeSlot{true, cycle + p.MulLatency, ins.Dst, ins.NoWB, result})
			case isa.UnitAdd:
				if addIssued {
					return Stats{}, fmt.Errorf("%w: adder double issue at cycle %d", ErrHazard, cycle)
				}
				addIssued = true
				m.stats.AddIssues++
				result, err := m.addsub(ins, a, b)
				if err != nil {
					return Stats{}, err
				}
				m.addPipe = append(m.addPipe, pipeSlot{true, cycle + p.AddLatency, ins.Dst, ins.NoWB, result})
			}
		}
		if reads > 4 {
			return Stats{}, fmt.Errorf("%w: %d register reads at cycle %d (4 ports)", ErrHazard, reads, cycle)
		}
		m.stats.RegReads += reads
		m.stats.ReadPortPressure[reads]++
		if !mulIssued && !addIssued {
			m.stats.StallCycles++
		}
	}
	// Drain check: schedule validation guarantees everything completes by
	// Makespan, so the pipes must be empty. Checked pipe by pipe — no
	// concatenated scratch slice.
	for _, s := range m.mulPipe {
		if s.valid {
			return Stats{}, fmt.Errorf("%w: result still in flight after makespan", ErrHazard)
		}
	}
	for _, s := range m.addPipe {
		if s.valid {
			return Stats{}, fmt.Errorf("%w: result still in flight after makespan", ErrHazard)
		}
	}

	for name, reg := range p.OutputRegs {
		if !m.written[reg] {
			return Stats{}, fmt.Errorf("rtl: output %q register %d never written", name, reg)
		}
	}
	m.stats.Cycles = p.Makespan
	if p.Makespan > 0 {
		m.stats.MulUtilization = float64(m.stats.MulIssues) / float64(p.Makespan)
		m.stats.AddUtilization = float64(m.stats.AddIssues) / float64(p.Makespan)
	}
	// Materialize the opcode map from the dense counters, nonzero entries
	// only (exactly the keys the per-issue map increments used to carry).
	m.stats.IssuesByOpcode = make(map[string]int, numOpcodes)
	for id, n := range m.opcodeCounts {
		if n > 0 {
			m.stats.IssuesByOpcode[opcodeNames[id]] = n
		}
	}
	return m.stats, nil
}

// isFwd reports whether an operand reads a forwarding port.
func isFwd(op isa.Operand) bool {
	return op.Kind == isa.OpFwdMul || op.Kind == isa.OpFwdAdd
}

// writeback retires results whose completion is this cycle; it returns
// the unit output-port values for the forwarding network.
func (m *Interpreter) writeback(cycle int) (mulOut, addOut *fp2.Element, err error) {
	writes := 0
	retire := func(pipe []pipeSlot, unit uint8) ([]pipeSlot, *fp2.Element, error) {
		var out *fp2.Element
		next := pipe[:0]
		for _, s := range pipe {
			if !s.valid || s.completion != cycle {
				if s.valid {
					next = append(next, s)
				}
				continue
			}
			if out != nil {
				return nil, nil, fmt.Errorf("%w: two results on one unit at cycle %d", ErrHazard, cycle)
			}
			v := s.value
			if m.in.Injector != nil {
				// A pipeline-output-register fault corrupts both the
				// forwarding port and the register-file write.
				v = m.in.Injector.Retire(cycle, unit, s.dst, v)
			}
			out = &v
			if s.noWB {
				m.stats.ElidedWrites++
			} else {
				// A corrupted control word (ROM fault) can aim a write
				// anywhere in the 9-bit address space; a real register
				// file would silently alias, our model fails loudly.
				if int(s.dst) >= len(m.regs) {
					return nil, nil, fmt.Errorf("%w: write to register %d out of range at cycle %d", ErrHazard, s.dst, cycle)
				}
				m.regs[s.dst] = v
				m.written[s.dst] = true
				writes++
			}
			if m.in.Observer != nil {
				m.in.Observer(Event{Kind: EvWriteback, Cycle: cycle, Unit: unit, Dst: s.dst, Value: v, Elided: s.noWB})
			}
		}
		return next, out, nil
	}
	m.mulPipe, mulOut, err = retire(m.mulPipe, isa.UnitMul)
	if err != nil {
		return nil, nil, err
	}
	m.addPipe, addOut, err = retire(m.addPipe, isa.UnitAdd)
	if err != nil {
		return nil, nil, err
	}
	if writes > 2 {
		return nil, nil, fmt.Errorf("%w: %d register writes at cycle %d (2 ports)", ErrHazard, writes, cycle)
	}
	m.stats.RegWrites += writes
	m.stats.WritePortPressure[writes]++
	return mulOut, addOut, nil
}

// resolve produces the operand value and the number of register-file
// read ports it consumed.
func (m *Interpreter) resolve(cycle int, ins isa.Instr, op isa.Operand, mulOut, addOut *fp2.Element) (fp2.Element, int, error) {
	readReg := func(r uint16) (fp2.Element, error) {
		if int(r) >= len(m.regs) {
			return fp2.Element{}, fmt.Errorf("%w: register %d out of range", ErrHazard, r)
		}
		if !m.written[r] {
			return fp2.Element{}, fmt.Errorf("%w: read of never-written register %d", ErrHazard, r)
		}
		return m.regs[r], nil
	}
	switch op.Kind {
	case isa.OpReg:
		v, err := readReg(op.Reg)
		return v, 1, err
	case isa.OpFwdMul:
		if mulOut == nil {
			return fp2.Element{}, 0, fmt.Errorf("%w: forwarding from idle multiplier", ErrHazard)
		}
		m.stats.ForwardedReads++
		v := *mulOut
		if m.in.Injector != nil {
			v = m.in.Injector.Forward(cycle, isa.UnitMul, v)
		}
		return v, 0, nil
	case isa.OpFwdAdd:
		if addOut == nil {
			return fp2.Element{}, 0, fmt.Errorf("%w: forwarding from idle adder", ErrHazard)
		}
		m.stats.ForwardedReads++
		v := *addOut
		if m.in.Injector != nil {
			v = m.in.Injector.Forward(cycle, isa.UnitAdd, v)
		}
		return v, 0, nil
	case isa.OpTable:
		if op.Digit >= scalar.Digits {
			return fp2.Element{}, 0, fmt.Errorf("%w: table digit %d", ErrHazard, op.Digit)
		}
		sign := m.in.Rec.Sign[op.Digit]
		idx := m.in.Rec.Index[op.Digit]
		coord := op.Coord
		if sign < 0 {
			switch coord {
			case 0:
				coord = 1
			case 1:
				coord = 0
			}
		}
		v, err := readReg(m.prog.TableRegs[idx][coord])
		return v, 1, err
	case isa.OpROM:
		if op.Digit >= scalar.Digits {
			return fp2.Element{}, 0, fmt.Errorf("%w: ROM window %d exceeds digit positions", ErrHazard, op.Digit)
		}
		if op.Digit < 1 || int(op.Digit) > len(m.prog.ROMWindows) {
			return fp2.Element{}, 0, fmt.Errorf("%w: ROM window %d outside [1,%d]", ErrHazard, op.Digit, len(m.prog.ROMWindows))
		}
		sign := m.in.Rec.Sign[op.Digit]
		idx := m.in.Rec.Index[op.Digit]
		coord := op.Coord
		if sign < 0 {
			switch coord {
			case 0:
				coord = 1
			case 1:
				coord = 0
			}
		}
		// The ROM has its own read port: no register-file port consumed,
		// no written bit to check.
		m.stats.ROMReads++
		l := m.prog.ROMWindows[op.Digit-1][idx][coord]
		return fp2.New(fp.SetLimbs(l[0], l[1]), fp.SetLimbs(l[2], l[3])), 0, nil
	case isa.OpCorr:
		if m.in.Corrected {
			coord := op.Coord
			switch coord {
			case 0:
				coord = 1
			case 1:
				coord = 0
			case 3:
				coord = 3 // raw 2dT; the dynamic sign op negates it
			}
			v, err := readReg(m.prog.TableRegs[0][coord])
			return v, 1, err
		}
		v, err := readReg(m.prog.CorrIdentRegs[op.Coord])
		return v, 1, err
	}
	return fp2.Element{}, 0, fmt.Errorf("%w: operand kind %v unresolvable", ErrHazard, op.Kind)
}

// addsub executes the adder with per-lane commands, resolving dynamic
// sign commands from the recoded digits / correction flag.
func (m *Interpreter) addsub(ins isa.Instr, a, b fp2.Element) (fp2.Element, error) {
	cmdRe, cmdIm := ins.CmdRe, ins.CmdIm
	if ins.CmdMode == isa.CmdDynSign {
		neg := false
		if ins.Digit == isa.DigitCorr {
			neg = m.in.Corrected
		} else {
			if ins.Digit >= scalar.Digits {
				return fp2.Element{}, fmt.Errorf("%w: dyn sign digit %d", ErrHazard, ins.Digit)
			}
			neg = m.in.Rec.Sign[ins.Digit] < 0
		}
		if neg {
			cmdRe, cmdIm = isa.CmdSub, isa.CmdSub
		} else {
			cmdRe, cmdIm = isa.CmdAdd, isa.CmdAdd
		}
	}
	var out fp2.Element
	if cmdRe == isa.CmdAdd {
		out.A = fp.Add(a.A, b.A)
	} else {
		out.A = fp.Sub(a.A, b.A)
	}
	if cmdIm == isa.CmdAdd {
		out.B = fp.Add(a.B, b.B)
	} else {
		out.B = fp.Sub(a.B, b.B)
	}
	return out, nil
}

package rtl

import (
	"repro/internal/fp2"
	"repro/internal/isa"
)

// Injector is the datapath fault-injection interface: rtl.Run calls it
// at four architecturally meaningful points of every cycle, letting an
// implementation (internal/fault) corrupt state exactly the way silicon
// faults do — register-file upsets, pipeline-register upsets, glitched
// forwarding paths, and control-ROM corruption. A nil Injector in
// RunInput costs nothing; the simulator only consults it when set.
//
// Hook ordering within cycle c is fixed and documented so that faults
// addressed by (cycle, site, bit) are exactly replayable:
//
//  1. BeginCycle(c, rf)  — before the write-back phase; register-file
//     words hold the values left by cycle c-1.
//  2. Retire(c, ...)     — once per result completing at c, before the
//     value reaches the forwarding port and the register file (a fault
//     here models an upset pipeline output register: both consumers see
//     the corrupted word).
//  3. Fetch(c, ins)      — once per control-ROM slot issuing at c,
//     before operand resolution.
//  4. Forward(c, ...)    — once per operand sourced from a forwarding
//     port at c (a fault here models a glitched bypass wire; the
//     register-file copy, if any, stays intact).
//
// Implementations are called from a single goroutine per Run; they need
// no internal locking unless shared across concurrent runs.
type Injector interface {
	// BeginCycle may inspect and corrupt the architectural register
	// file at the start of cycle.
	BeginCycle(cycle int, rf RegFile)
	// Fetch intercepts an instruction leaving the control ROM. The
	// returned instruction is issued instead; ok=false squashes the
	// slot entirely (models a corrupted valid bit).
	Fetch(cycle int, ins isa.Instr) (_ isa.Instr, ok bool)
	// Forward intercepts an operand value on a forwarding path.
	// unit is isa.UnitMul or isa.UnitAdd (which output port).
	Forward(cycle int, unit uint8, v fp2.Element) fp2.Element
	// Retire intercepts a result leaving a functional unit's pipeline
	// at its completion cycle, before write-back and forwarding.
	Retire(cycle int, unit uint8, dst uint16, v fp2.Element) fp2.Element
}

// RegFile is the injector's window onto the architectural register
// file. Poke corrupts the stored word only — it never marks a
// never-written register as valid, so the hazard checker's
// read-of-never-written detection is unaffected (flipping a bit in an
// uninitialized SRAM word is architecturally invisible, and the model
// keeps it that way).
type RegFile interface {
	// NumRegs is the register-file size of the running program.
	NumRegs() int
	// Written reports whether the register has been written (by program
	// load or a completed write-back).
	Written(r uint16) bool
	// Peek reads the stored word without consuming a read port.
	Peek(r uint16) fp2.Element
	// Poke overwrites the stored word without consuming a write port.
	Poke(r uint16, v fp2.Element)
}

// regWindow adapts an interpreter to the RegFile view.
type regWindow struct{ m *Interpreter }

func (w regWindow) NumRegs() int                 { return len(w.m.regs) }
func (w regWindow) Written(r uint16) bool        { return int(r) < len(w.m.written) && w.m.written[r] }
func (w regWindow) Peek(r uint16) fp2.Element    { return w.m.regs[r] }
func (w regWindow) Poke(r uint16, v fp2.Element) { w.m.regs[r] = v }

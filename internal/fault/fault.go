// Package fault is the deterministic fault-injection layer for the
// cycle-accurate cryptoprocessor model. The paper's headline energy
// number (0.327 uJ per scalar multiplication) is earned at 0.32 V —
// deep near-threshold operation where timing upsets and SEUs are the
// dominant reliability concern — yet the published results assume a
// perfect datapath. This package lets the reproduction ask what the
// silicon paper cannot: what happens when the hardware lies.
//
// A Fault is addressed by (cycle, site, bit), so every campaign is
// exactly replayable: the same seed produces the same fault list,
// the same corrupted runs, and byte-identical reports. Faults model
//
//   - single/multi bit flips in register-file words (SiteRegFile),
//   - upsets in the functional units' pipeline output registers
//     (SitePipeMul, SitePipeAdd),
//   - glitched forwarding paths (SiteFwdMul, SiteFwdAdd), and
//   - control-ROM instruction corruption (SiteROM),
//
// each transient (one-shot) or stuck-at-0/1 (persistent from the fault
// cycle on). The Injector implements rtl.Injector and reports fault.*
// telemetry; Campaign sweeps seeded faults over full scalar
// multiplications and classifies every outcome as detected, silent
// corruption, or masked. See docs/FAULTS.md.
package fault

import (
	"encoding/json"
	"fmt"

	"repro/internal/fp"
	"repro/internal/fp2"
	"repro/internal/isa"
	"repro/internal/rtl"
	"repro/internal/telemetry"
)

// Site identifies the datapath structure a fault lives in.
type Site uint8

const (
	// SiteRegFile upsets a stored register-file word. Index is the
	// register address; the flip lands before the write-back phase of
	// the fault cycle, so it corrupts the value left by the previous
	// cycle.
	SiteRegFile Site = iota
	// SitePipeMul upsets the multiplier's pipeline output register: the
	// result retiring at the fault cycle is corrupted before it reaches
	// the forwarding port and the register file.
	SitePipeMul
	// SitePipeAdd is the adder/subtractor pipeline output register.
	SitePipeAdd
	// SiteFwdMul glitches the multiplier forwarding path: an operand
	// sourced from the Mout bypass at the fault cycle is corrupted; the
	// register-file copy (if any) stays intact.
	SiteFwdMul
	// SiteFwdAdd is the adder forwarding path.
	SiteFwdAdd
	// SiteROM corrupts a control word as it leaves the program ROM.
	// Index selects the issue slot (isa.UnitMul or isa.UnitAdd), Bit
	// the control-word bit (0..63); flipping the valid bit squashes the
	// slot entirely.
	SiteROM

	numSites
)

var siteNames = [numSites]string{
	"regfile", "pipe_mul", "pipe_add", "fwd_mul", "fwd_add", "rom",
}

// String names the site as used in reports and metrics.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// MarshalJSON renders the site as its name so campaign reports read
// without a decoder ring.
func (s Site) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// UnmarshalJSON reads the site back from its name.
func (s *Site) UnmarshalJSON(b []byte) error {
	i, err := unmarshalName(b, siteNames[:])
	*s = Site(i)
	return err
}

// AllSites lists every injectable site, in address order.
func AllSites() []Site {
	return []Site{SiteRegFile, SitePipeMul, SitePipeAdd, SiteFwdMul, SiteFwdAdd, SiteROM}
}

// Kind selects the fault's temporal behavior.
type Kind uint8

const (
	// KindTransient applies exactly once, at the fault cycle (an SEU).
	KindTransient Kind = iota
	// KindStuckAt0 forces the bit to 0 at every access from the fault
	// cycle on (a manufacturing or wear-out defect).
	KindStuckAt0
	// KindStuckAt1 forces the bit to 1 from the fault cycle on.
	KindStuckAt1
)

var kindNames = [...]string{"transient", "stuck0", "stuck1"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// UnmarshalJSON reads the kind back from its name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	i, err := unmarshalName(b, kindNames[:])
	*k = Kind(i)
	return err
}

// unmarshalName returns the index of the JSON string b in names.
func unmarshalName(b []byte, names []string) (int, error) {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return 0, err
	}
	for i, n := range names {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown name %q", name)
}

// WordBits is the fault-addressable width of a GF(p^2) datapath word:
// two 127-bit lanes (p = 2^127 - 1 values are 127 bits wide in the
// register file). Bits 0..126 address the real lane, 127..253 the
// imaginary lane.
const WordBits = 254

// ROMBits is the width of a control word (one 64-bit ROM entry).
const ROMBits = 64

// Fault is one injectable hardware fault, fully determined by its
// fields: campaigns serialize and replay faults by value.
type Fault struct {
	// Cycle is when the fault strikes (transient) or begins (stuck-at).
	Cycle int `json:"cycle"`
	// Site is the datapath structure addressed.
	Site Site `json:"site"`
	// Index narrows the site: the register address for SiteRegFile, the
	// issue slot (isa.UnitMul/isa.UnitAdd) for SiteROM; unused
	// elsewhere.
	Index uint16 `json:"index"`
	// Bit addresses the upset bit: 0..WordBits-1 for datapath words,
	// 0..ROMBits-1 for control words.
	Bit uint16 `json:"bit"`
	// Kind is the temporal behavior.
	Kind Kind `json:"kind"`
}

// String renders the replayable fault address.
func (f Fault) String() string {
	switch f.Site {
	case SiteRegFile:
		return fmt.Sprintf("%s r%d bit %d @cycle %d", f.Kind, f.Index, f.Bit, f.Cycle)
	case SiteROM:
		return fmt.Sprintf("%s rom slot %d bit %d @cycle %d", f.Kind, f.Index, f.Bit, f.Cycle)
	}
	return fmt.Sprintf("%s %s bit %d @cycle %d", f.Kind, f.Site, f.Bit, f.Cycle)
}

// active reports whether the fault applies at cycle: transients fire at
// exactly their cycle, stuck-at faults from it on.
func (f Fault) active(cycle int) bool {
	if f.Kind == KindTransient {
		return cycle == f.Cycle
	}
	return cycle >= f.Cycle
}

// mutateWord applies the fault's bit operation to a datapath word. Lane
// values stay canonical: fp.SetLimbs folds the (unrepresentable) all-
// ones pattern p back to 0, exactly as the datapath's Mersenne
// reduction would on the next pass.
func (f Fault) mutateWord(v fp2.Element) fp2.Element {
	bit := f.Bit % WordBits
	a, b := v.A, v.B
	if bit < 127 {
		a = mutateLane(a, bit, f.Kind)
	} else {
		b = mutateLane(b, bit-127, f.Kind)
	}
	return fp2.New(a, b)
}

func mutateLane(e fp.Element, bit uint16, k Kind) fp.Element {
	lo, hi := e.Limbs()
	target, mask := &lo, uint64(1)<<bit
	if bit >= 64 {
		target, mask = &hi, uint64(1)<<(bit-64)
	}
	switch k {
	case KindTransient:
		*target ^= mask
	case KindStuckAt0:
		*target &^= mask
	case KindStuckAt1:
		*target |= mask
	}
	return fp.SetLimbs(lo, hi)
}

// Injector applies a fixed fault list through the rtl.Injector hook
// points, counting every architecturally visible application (stuck-at
// accesses that leave the word unchanged do not count as fired). One
// Injector serves one goroutine at a time; reuse across sequential runs
// is allowed and is how wall-clock-once SEUs are modeled (see Budget).
type Injector struct {
	faults []Fault
	fired  []int
	// budget caps the total number of applications across the
	// injector's lifetime; <0 is unlimited. A budget of 1 models a true
	// single-event upset: it strikes one run (the engine's retry then
	// executes fault-free).
	budget  int
	firedC  *telemetry.Counter
	squashC *telemetry.Counter
}

// NewInjector builds an injector over faults. reg, when non-nil,
// receives fault.* telemetry: "fault.armed" (faults loaded),
// "fault.fired" (architecturally visible applications), and
// "fault.squashed_slots" (ROM faults that killed an instruction's valid
// bit).
func NewInjector(faults []Fault, reg *telemetry.Registry) *Injector {
	in := &Injector{
		faults: append([]Fault(nil), faults...),
		fired:  make([]int, len(faults)),
		budget: -1,
	}
	if reg != nil {
		reg.Counter("fault.armed").Add(int64(len(faults)))
		in.firedC = reg.Counter("fault.fired")
		in.squashC = reg.Counter("fault.squashed_slots")
	}
	return in
}

// SetBudget caps the total number of applications (negative =
// unlimited) and returns the injector for chaining.
func (in *Injector) SetBudget(n int) *Injector {
	in.budget = n
	return in
}

// Fired returns the total number of architecturally visible fault
// applications so far.
func (in *Injector) Fired() int {
	t := 0
	for _, n := range in.fired {
		t += n
	}
	return t
}

// FiredByFault returns per-fault application counts, index-aligned with
// the constructor's fault list.
func (in *Injector) FiredByFault() []int { return append([]int(nil), in.fired...) }

// spend consumes one application from the budget; it returns false when
// the budget is exhausted.
func (in *Injector) spend() bool {
	if in.budget == 0 {
		return false
	}
	if in.budget > 0 {
		in.budget--
	}
	return true
}

func (in *Injector) fire(i int) {
	in.fired[i]++
	if in.firedC != nil {
		in.firedC.Inc()
	}
}

// BeginCycle implements rtl.Injector: register-file faults.
func (in *Injector) BeginCycle(cycle int, rf rtl.RegFile) {
	for i, f := range in.faults {
		if f.Site != SiteRegFile || !f.active(cycle) || int(f.Index) >= rf.NumRegs() {
			continue
		}
		old := rf.Peek(f.Index)
		next := f.mutateWord(old)
		if next == old || !in.spend() {
			continue
		}
		rf.Poke(f.Index, next)
		in.fire(i)
	}
}

// Fetch implements rtl.Injector: control-ROM corruption.
func (in *Injector) Fetch(cycle int, ins isa.Instr) (isa.Instr, bool) {
	for i, f := range in.faults {
		if f.Site != SiteROM || !f.active(cycle) || f.Index != uint16(ins.Unit) {
			continue
		}
		w, err := isa.Encode(ins)
		if err != nil {
			continue
		}
		mask := uint64(1) << (f.Bit % ROMBits)
		switch f.Kind {
		case KindTransient:
			w ^= mask
		case KindStuckAt0:
			w &^= mask
		case KindStuckAt1:
			w |= mask
		}
		corrupted, err := isa.Decode(w)
		if err != nil {
			// The valid bit died: the slot never issues.
			if in.spend() {
				in.fire(i)
				if in.squashC != nil {
					in.squashC.Inc()
				}
				return ins, false
			}
			continue
		}
		corrupted.Cycle, corrupted.Label = ins.Cycle, ins.Label
		if corrupted == ins || !in.spend() {
			continue
		}
		in.fire(i)
		ins = corrupted
	}
	return ins, true
}

// Forward implements rtl.Injector: forwarding-path glitches.
func (in *Injector) Forward(cycle int, unit uint8, v fp2.Element) fp2.Element {
	site := SiteFwdMul
	if unit == isa.UnitAdd {
		site = SiteFwdAdd
	}
	return in.mutateAt(site, cycle, v)
}

// Retire implements rtl.Injector: pipeline-output-register upsets.
func (in *Injector) Retire(cycle int, unit uint8, dst uint16, v fp2.Element) fp2.Element {
	site := SitePipeMul
	if unit == isa.UnitAdd {
		site = SitePipeAdd
	}
	return in.mutateAt(site, cycle, v)
}

func (in *Injector) mutateAt(site Site, cycle int, v fp2.Element) fp2.Element {
	for i, f := range in.faults {
		if f.Site != site || !f.active(cycle) {
			continue
		}
		next := f.mutateWord(v)
		if next == v || !in.spend() {
			continue
		}
		in.fire(i)
		v = next
	}
	return v
}

var _ rtl.Injector = (*Injector)(nil)

package fault

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/fp"
	"repro/internal/fp2"
	"repro/internal/scalar"
	"repro/internal/telemetry"
)

// One processor build per test binary: the trace->schedule->emit
// pipeline is the expensive part, and it is immutable once built.
var (
	procOnce sync.Once
	procVal  *core.Processor
	procErr  error
)

func testProc(t testing.TB) *core.Processor {
	t.Helper()
	procOnce.Do(func() { procVal, procErr = core.New(core.Config{}) })
	if procErr != nil {
		t.Fatal(procErr)
	}
	return procVal
}

func TestMutateWordBitAddressing(t *testing.T) {
	v := fp2.New(fp.SetLimbs(0x0123456789ABCDEF, 0x00FF00FF00FF00FF), fp.SetLimbs(7, 9))
	for _, bit := range []uint16{0, 5, 63, 64, 100, 126, 127, 200, 253} {
		f := Fault{Bit: bit, Kind: KindTransient}
		flipped := f.mutateWord(v)
		if flipped == v {
			t.Fatalf("bit %d: transient flip left the word unchanged", bit)
		}
		// An XOR flip is its own inverse as long as no lane aliased
		// through the Mersenne fold, which these values never do.
		if back := f.mutateWord(flipped); back != v {
			t.Fatalf("bit %d: double flip did not restore the word", bit)
		}
		lane := "real"
		if bit >= 127 {
			lane = "imag"
		}
		other := flipped.B
		same := v.B
		if bit >= 127 {
			other, same = flipped.A, v.A
		}
		if !other.Equal(same) {
			t.Fatalf("bit %d: flip leaked outside the %s lane", bit, lane)
		}
	}
}

func TestMutateWordStuckAt(t *testing.T) {
	v := fp2.New(fp.New(0), fp.New(0))
	set := Fault{Bit: 3, Kind: KindStuckAt1}
	if got := set.mutateWord(v); got == v {
		t.Fatal("stuck-at-1 on a zero bit changed nothing")
	} else if again := set.mutateWord(got); again != got {
		t.Fatal("stuck-at-1 is not idempotent")
	}
	clear := Fault{Bit: 3, Kind: KindStuckAt0}
	if got := clear.mutateWord(v); got != v {
		t.Fatal("stuck-at-0 on an already-zero bit changed the word")
	}
}

// TestMersenneFoldAliasing pins the one representability edge: flipping
// the single zero bit of p-2^k yields the all-ones pattern p, which the
// canonical representation folds to 0 — the same aliasing a 127-bit
// hardware register would exhibit one reduction later.
func TestMersenneFoldAliasing(t *testing.T) {
	p0, p1 := fp.P()
	almost := fp.SetLimbs(p0&^(1<<5), p1) // p - 2^5, canonical
	v := fp2.New(almost, fp.New(0))
	f := Fault{Bit: 5, Kind: KindTransient}
	if got := f.mutateWord(v); !got.A.IsZero() {
		t.Fatalf("flip to the all-ones pattern must fold to 0, got %v", got.A)
	}
}

func TestInjectorBudgetModelsOneShotSEU(t *testing.T) {
	p := testProc(t)
	f := findDetectedRegFileFault(t, p)
	reg := telemetry.NewRegistry()
	inj := NewInjector([]Fault{f}, reg).SetBudget(1)
	ex := p.NewExecutor()
	ex.SetInjector(inj)

	k := core.DefaultTraceScalar()
	g := curve.GeneratorAffine()
	// validated runs one lane of the executor's batch entry point at v.
	validated := func(v core.Validate) (curve.Affine, error) {
		outs, errs := make([]curve.Affine, 1), make([]error, 1)
		if _, err := ex.ScalarMultBatch(core.ProgramVariableBase, []scalar.Scalar{k}, []curve.Affine{g}, outs, errs, v); err != nil {
			return curve.Affine{}, err
		}
		return outs[0], errs[0]
	}
	if _, err := validated(core.ValidateOnCurve); err == nil {
		t.Fatal("first run: the armed fault was not detected")
	}
	if inj.Fired() != 1 {
		t.Fatalf("first run fired %d times, want 1", inj.Fired())
	}
	// The SEU is spent: the retry must run fault-free and validate.
	got, err := validated(core.ValidateOracle)
	if err != nil {
		t.Fatalf("second run with exhausted budget: %v", err)
	}
	want := curve.ScalarMult(k, curve.Generator()).Affine()
	if !got.X.Equal(want.X) || !got.Y.Equal(want.Y) {
		t.Fatal("second run result differs from oracle")
	}
	snap := reg.Snapshot()
	if snap.Counters["fault.armed"] != 1 || snap.Counters["fault.fired"] != 1 {
		t.Fatalf("telemetry armed=%d fired=%d, want 1/1",
			snap.Counters["fault.armed"], snap.Counters["fault.fired"])
	}
}

// findDetectedRegFileFault deterministically locates a register-file
// bit flip that the cheap on-curve validation catches (exported to the
// engine tests via FindDetected).
func findDetectedRegFileFault(t testing.TB, p *core.Processor) Fault {
	t.Helper()
	f, err := FindDetected(p, CampaignConfig{Seed: 0xF4017, Trials: 48, Sites: []Site{SiteRegFile}})
	if err != nil {
		t.Fatalf("no validation-detected register-file fault in the sweep: %v", err)
	}
	return f
}

func TestCampaignReplayableByteForByte(t *testing.T) {
	p := testProc(t)
	cfg := CampaignConfig{Seed: 42, Trials: 36}
	r1, err := Campaign(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Campaign(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.MarshalIndent(r1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.MarshalIndent(r2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("same seed produced different campaign reports")
	}

	other, err := Campaign(p, CampaignConfig{Seed: 43, Trials: 36})
	if err != nil {
		t.Fatal(err)
	}
	bo, _ := json.Marshal(other)
	if string(bo) == string(b1) {
		t.Fatal("different seeds produced identical reports (RNG not threaded)")
	}
}

// TestCampaignPinned pins the outcome counts of the seeded campaign
// fourq-bench -exp faults reports (seed 0xF4017, 64 trials, every site,
// the default processor build). The campaign is deterministic, so any
// drift means the RTL or the injector contract moved. The report must
// also pass its own Check.
func TestCampaignPinned(t *testing.T) {
	rep, err := Campaign(testProc(t), CampaignConfig{Seed: 0xF4017, Trials: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected != 22 || rep.Silent != 0 || rep.Masked != 42 {
		t.Fatalf("detected/silent/masked = %d/%d/%d, want 22/0/42", rep.Detected, rep.Silent, rep.Masked)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignClassificationReconciles(t *testing.T) {
	p := testProc(t)
	rep, err := Campaign(p, CampaignConfig{Seed: 7, Trials: 40, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Detected + rep.Silent + rep.Masked; got != 40 {
		t.Fatalf("outcomes sum to %d, want 40", got)
	}
	if len(rep.Trials) != 40 {
		t.Fatalf("trial log has %d entries, want 40", len(rep.Trials))
	}
	var bySiteTotal int
	for site, tally := range rep.BySite {
		if tally.Detected+tally.Silent+tally.Masked != tally.Trials {
			t.Fatalf("site %s tally does not reconcile: %+v", site, tally)
		}
		bySiteTotal += tally.Trials
	}
	if bySiteTotal != 40 {
		t.Fatalf("per-site trials sum to %d, want 40", bySiteTotal)
	}
	if rep.Detected == 0 {
		t.Fatal("a 40-trial all-site sweep detected nothing; injection is not reaching the datapath")
	}
	if rep.DetectionCoverage < 0 || rep.DetectionCoverage > 1 {
		t.Fatalf("detection coverage %v outside [0,1]", rep.DetectionCoverage)
	}
	for _, tr := range rep.Trials {
		if tr.Outcome == OutcomeDetected && tr.Detector == "" {
			t.Fatalf("detected trial %v carries no detector", tr.Fault)
		}
		if (tr.Outcome == OutcomeSilent || tr.Outcome == OutcomeDetected) &&
			tr.Detector != DetectorHazard && tr.Fired == 0 {
			t.Fatalf("trial %v affected the result without firing", tr.Fault)
		}
	}
}

// TestROMValidBitSquashFailsLoudly: killing a control word's valid bit
// makes its instruction vanish; the hazard checker (or the output
// completeness check) must refuse the run rather than return a point
// computed from a truncated program.
func TestROMValidBitSquash(t *testing.T) {
	p := testProc(t)
	prog := p.Program()
	first := prog.Instrs[0]
	for _, ins := range prog.Instrs {
		if ins.Cycle < first.Cycle {
			first = ins
		}
	}
	reg := telemetry.NewRegistry()
	inj := NewInjector([]Fault{{
		Cycle: first.Cycle, Site: SiteROM, Index: uint16(first.Unit), Bit: 0, Kind: KindStuckAt0,
	}}, reg)
	ex := p.NewExecutor()
	ex.SetInjector(inj)
	_, _, err := ex.ScalarMultPoint(core.DefaultTraceScalar(), curve.GeneratorAffine())
	if err == nil {
		t.Fatal("run with a squashed first instruction completed silently")
	}
	if got := reg.Snapshot().Counters["fault.squashed_slots"]; got == 0 {
		t.Fatal("squashed-slot telemetry did not record the dead valid bit")
	}
}

func TestValidationSentinelsSurface(t *testing.T) {
	p := testProc(t)
	f := findDetectedRegFileFault(t, p)
	ex := p.NewExecutor()
	ex.SetInjector(NewInjector([]Fault{f}, nil))
	outs, errs := make([]curve.Affine, 1), make([]error, 1)
	ks := []scalar.Scalar{core.DefaultTraceScalar()}
	if _, err := ex.ScalarMultBatch(core.ProgramVariableBase, ks, nil, outs, errs, core.ValidateOnCurve); err != nil {
		t.Fatal(err)
	}
	if err := errs[0]; !errors.Is(err, core.ErrOffCurve) && !errors.Is(err, core.ErrDegenerate) {
		t.Fatalf("validation error %v is not a structural-check sentinel", err)
	}
}

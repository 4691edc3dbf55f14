package fault

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/scalar"
	"repro/internal/telemetry"
)

// Outcome classifies one fault-injected scalar multiplication.
type Outcome string

const (
	// OutcomeDetected: the run failed loudly — either the hazard
	// checker tripped (structural corruption) or the cheap end-of-SM
	// result validation rejected the point. The engine's retry /
	// degradation machinery sees exactly this class.
	OutcomeDetected Outcome = "detected"
	// OutcomeSilent: the run completed, the cheap checks passed, but
	// the result differs from the functional oracle — silent data
	// corruption, the worst case for a serving system.
	OutcomeSilent Outcome = "silent"
	// OutcomeMasked: the fault had no architectural effect (dead
	// register, overwritten before use, or it never fired).
	OutcomeMasked Outcome = "masked"
)

// Detectors (the Trial.Detector values for OutcomeDetected).
const (
	// DetectorHazard: rtl.Run's structural hazard checker refused the
	// corrupted run (double issue, bad register address, missing
	// output, ...). ROM corruption mostly dies here.
	DetectorHazard = "hazard"
	// DetectorOnCurve: the cheap end-of-SM validation (non-degenerate,
	// on-curve) rejected the decoded point.
	DetectorOnCurve = "oncurve"
)

// CampaignConfig parametrizes a seeded fault campaign.
type CampaignConfig struct {
	// Seed drives every random choice; equal seeds (with equal Trials
	// and Sites on the same processor build) reproduce the campaign
	// byte for byte.
	Seed int64
	// Trials is the number of faults injected, one full scalar
	// multiplication each. Default 64.
	Trials int
	// Sites restricts the sweep; empty means AllSites().
	Sites []Site
	// K is the scalar multiplied in every trial; zero selects
	// core.DefaultTraceScalar(). One fixed scalar keeps trials
	// comparable: only the fault varies.
	K scalar.Scalar
	// Registry, when non-nil, receives the campaign's fault.* counters.
	Registry *telemetry.Registry
}

// SiteTally aggregates outcomes for one site.
type SiteTally struct {
	Trials   int `json:"trials"`
	Detected int `json:"detected"`
	Silent   int `json:"silent"`
	Masked   int `json:"masked"`
}

// Trial is one campaign entry: the (replayable) fault and its outcome.
type Trial struct {
	Fault    Fault   `json:"fault"`
	Outcome  Outcome `json:"outcome"`
	Detector string  `json:"detector,omitempty"`
	// Fired counts the fault's architecturally visible applications
	// during the run; a masked outcome with Fired=0 means the fault
	// never even touched live state.
	Fired int `json:"fired"`
}

// CampaignMeta is the replay recipe. Report.Check rejects a report
// that quotes corruption rates without it.
type CampaignMeta struct {
	Seed   int64    `json:"seed"`
	Trials int      `json:"trials"`
	Sites  []string `json:"sites"`
	// Validation names the cheap detector classified against
	// (core.Validate.String of the structural check level).
	Validation string `json:"validation"`
}

// Report is the deterministic campaign result: marshaling it twice for
// the same config and processor build yields identical bytes (maps
// serialize sorted, floats derive from integer tallies).
type Report struct {
	Campaign CampaignMeta `json:"campaign"`
	Detected int          `json:"detected"`
	Silent   int          `json:"silent"`
	Masked   int          `json:"masked"`
	// DetectionCoverage is detected / (detected + silent): the share of
	// architecturally effective faults the cheap checks caught. 1 when
	// no fault had any effect.
	DetectionCoverage float64              `json:"detection_coverage"`
	BySite            map[string]SiteTally `json:"by_site"`
	Trials            []Trial              `json:"trial_log"`
}

// Check validates a campaign report: the replay recipe is complete
// (an unreproducible corruption rate is not evidence), and every tally
// reconciles with the trial count.
func (r *Report) Check() error {
	c := r.Campaign
	switch {
	case c.Trials <= 0:
		return fmt.Errorf("campaign.trials = %d, want > 0", c.Trials)
	case len(c.Sites) == 0:
		return fmt.Errorf("campaign.sites empty")
	case c.Validation == "":
		return fmt.Errorf("campaign.validation missing (which detector was classified against?)")
	}
	if got := r.Detected + r.Silent + r.Masked; got != c.Trials {
		return fmt.Errorf("detected+silent+masked = %d, want trials = %d", got, c.Trials)
	}
	if r.DetectionCoverage < 0 || r.DetectionCoverage > 1 {
		return fmt.Errorf("detection_coverage = %v, want in [0, 1]", r.DetectionCoverage)
	}
	var sum SiteTally
	for site, t := range r.BySite {
		if t.Detected+t.Silent+t.Masked != t.Trials {
			return fmt.Errorf("site %q tally does not reconcile", site)
		}
		sum.Trials += t.Trials
		sum.Detected += t.Detected
		sum.Silent += t.Silent
		sum.Masked += t.Masked
	}
	if sum != (SiteTally{c.Trials, r.Detected, r.Silent, r.Masked}) {
		return fmt.Errorf("by_site totals (%d/%d/%d/%d) disagree with the campaign totals (%d/%d/%d/%d)",
			sum.Trials, sum.Detected, sum.Silent, sum.Masked, c.Trials, r.Detected, r.Silent, r.Masked)
	}
	return nil
}

// splitmix64 is the campaign RNG: tiny, seedable, stable across Go
// releases (unlike math/rand ordering guarantees, which the replayable-
// report contract cannot depend on).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// Campaign sweeps cfg.Trials seeded faults over [K]G on p and
// classifies every outcome. Each trial runs one fault on a fresh
// executor; the shared processor is never mutated, so campaigns may run
// concurrently with normal serving.
func Campaign(p *core.Processor, cfg CampaignConfig) (*Report, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 64
	}
	sites := cfg.Sites
	if len(sites) == 0 {
		sites = AllSites()
	}
	k := cfg.K
	if k.IsZero() {
		k = core.DefaultTraceScalar()
	}
	base := curve.GeneratorAffine()
	want := curve.ScalarMult(k, curve.FromAffine(base)).Affine()
	prog := p.Program()

	rep := &Report{
		Campaign: CampaignMeta{
			Seed:       cfg.Seed,
			Trials:     cfg.Trials,
			Validation: core.ValidateOnCurve.String(),
		},
		BySite: map[string]SiteTally{},
	}
	for _, s := range sites {
		rep.Campaign.Sites = append(rep.Campaign.Sites, s.String())
	}

	rng := splitmix64(cfg.Seed)
	// One executor serves every trial: injected runs go through its
	// reusable interpreter, which clears the written bits, pipelines and
	// statistics per run, so no trial can observe another's state.
	ex := p.NewExecutor()
	for i := 0; i < cfg.Trials; i++ {
		f := randomFault(&rng, sites, prog.Makespan, prog.NumRegs)
		inj := NewInjector([]Fault{f}, cfg.Registry)
		ex.SetInjector(inj)
		got, _, err := ex.ScalarMultPoint(k, base)

		tr := Trial{Fault: f}
		switch {
		case err != nil:
			tr.Outcome, tr.Detector = OutcomeDetected, DetectorHazard
		case core.ValidateAffine(got) != nil:
			tr.Outcome, tr.Detector = OutcomeDetected, DetectorOnCurve
		case !got.X.Equal(want.X) || !got.Y.Equal(want.Y):
			tr.Outcome = OutcomeSilent
		default:
			tr.Outcome = OutcomeMasked
		}
		tr.Fired = inj.Fired()
		rep.Trials = append(rep.Trials, tr)

		tally := rep.BySite[f.Site.String()]
		tally.Trials++
		switch tr.Outcome {
		case OutcomeDetected:
			rep.Detected++
			tally.Detected++
		case OutcomeSilent:
			rep.Silent++
			tally.Silent++
		default:
			rep.Masked++
			tally.Masked++
		}
		rep.BySite[f.Site.String()] = tally
	}
	if eff := rep.Detected + rep.Silent; eff > 0 {
		rep.DetectionCoverage = float64(rep.Detected) / float64(eff)
	} else {
		rep.DetectionCoverage = 1
	}
	if got := len(rep.Trials); got != cfg.Trials {
		return nil, fmt.Errorf("fault: campaign produced %d trials, want %d", got, cfg.Trials)
	}
	return rep, nil
}

// FindDetected sweeps seeded faults like Campaign but stops at the
// first one whose run the cheap end-of-SM validation rejects (detector
// "oncurve" — hazard-detected faults are skipped). Tests use it to pin
// a concrete, deterministically replayable fault that result validation
// catches; the error reports an exhausted sweep.
func FindDetected(p *core.Processor, cfg CampaignConfig) (Fault, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 64
	}
	sites := cfg.Sites
	if len(sites) == 0 {
		sites = AllSites()
	}
	k := cfg.K
	if k.IsZero() {
		k = core.DefaultTraceScalar()
	}
	base := curve.GeneratorAffine()
	prog := p.Program()
	rng := splitmix64(cfg.Seed)
	ex := p.NewExecutor()
	for i := 0; i < cfg.Trials; i++ {
		f := randomFault(&rng, sites, prog.Makespan, prog.NumRegs)
		ex.SetInjector(NewInjector([]Fault{f}, cfg.Registry))
		got, _, err := ex.ScalarMultPoint(k, base)
		if err == nil && core.ValidateAffine(got) != nil {
			return f, nil
		}
	}
	return Fault{}, fmt.Errorf("fault: no validation-detected fault in %d trials (seed %d)", cfg.Trials, cfg.Seed)
}

// randomFault draws one fault. The draw order is part of the replay
// contract: (site, cycle, kind, index, bit), each from one RNG step.
func randomFault(rng *splitmix64, sites []Site, makespan, numRegs int) Fault {
	f := Fault{
		Site:  sites[rng.intn(len(sites))],
		Cycle: rng.intn(makespan + 1),
	}
	// Mostly SEUs, with a persistent-defect tail (1/8 each stuck-at).
	switch rng.intn(8) {
	case 0:
		f.Kind = KindStuckAt0
	case 1:
		f.Kind = KindStuckAt1
	default:
		f.Kind = KindTransient
	}
	switch f.Site {
	case SiteRegFile:
		f.Index = uint16(rng.intn(numRegs))
		f.Bit = uint16(rng.intn(WordBits))
	case SiteROM:
		f.Index = uint16(rng.intn(2))
		f.Bit = uint16(rng.intn(ROMBits))
	default:
		f.Bit = uint16(rng.intn(WordBits))
	}
	return f
}

package main

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// faultSeed fixes the campaign so every run (and the JSON report) is
// byte-for-byte reproducible; replay any trial by rebuilding the fault
// list from this seed.
const (
	faultSeed   = 0xF4017
	faultTrials = 64
)

// faults is E9: a seeded fault-injection campaign over the datapath.
// Each trial corrupts one (cycle, site, bit) address during a full
// scalar multiplication and classifies the outcome as detected (hazard
// checker or on-curve validation), silent corruption (passed the cheap
// checks, failed the oracle), or masked (no architectural effect).
func (b *bench) faults() error {
	p, err := b.processor()
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	fmt.Printf("sweeping %d seeded faults over the datapath (seed %#x)...\n", faultTrials, faultSeed)
	rep, err := fault.Campaign(p, fault.CampaignConfig{
		Seed:     faultSeed,
		Trials:   faultTrials,
		Registry: reg,
	})
	if err != nil {
		return err
	}

	fmt.Printf("%-10s %-8s %-10s %-8s %s\n", "site", "trials", "detected", "silent", "masked")
	for _, s := range fault.AllSites() {
		tally, ok := rep.BySite[s.String()]
		if !ok {
			continue
		}
		fmt.Printf("%-10s %-8d %-10d %-8d %d\n",
			s, tally.Trials, tally.Detected, tally.Silent, tally.Masked)
	}
	fmt.Printf("%-10s %-8d %-10d %-8d %d\n", "total", faultTrials, rep.Detected, rep.Silent, rep.Masked)
	fmt.Printf("detection coverage (detected / architecturally effective): %.1f%%\n",
		100*rep.DetectionCoverage)
	if rep.Silent > 0 {
		fmt.Printf("silent corruptions: %d — caught only by the differential oracle (core.ValidateOracle)\n", rep.Silent)
	}
	snap := reg.Snapshot()
	fmt.Printf("fault.fired=%d fault.squashed_slots=%d\n",
		snap.Counters["fault.fired"], snap.Counters["fault.squashed_slots"])
	b.rep.Add("faults", rep)
	return nil
}

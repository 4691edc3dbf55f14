package chaos_test

import (
	"testing"

	"repro/internal/chaos"
)

// TestCampaignInvariants runs the full catalog at test size under the
// race detector and requires a clean sheet: every scenario injected
// real faults and no invariant — exactly-once, zero mis-answers,
// shed-before-backpressure, bounded recovery — was breached. This is
// the test `make chaos-smoke` pins to a fixed seed in CI. The
// recovery and shed checks compare goodput over bursts of Requests
// each; 48 keeps a burst long enough (a few milliseconds of serving)
// that host scheduling noise stays well inside the recovery floor.
func TestCampaignInvariants(t *testing.T) {
	rep, err := chaos.Run(chaos.Options{Seed: 7, Requests: 48, Logf: t.Logf})
	if err != nil {
		t.Fatalf("campaign failed to run: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.FaultsInjected == 0 {
		t.Error("campaign injected no faults at all")
	}
	if got := len(rep.Scenarios); got != len(chaos.ScenarioNames()) {
		t.Errorf("ran %d scenarios, want %d", got, len(chaos.ScenarioNames()))
	}
	for _, sc := range rep.Scenarios {
		if sc.FaultsInjected == 0 {
			t.Errorf("scenario %s injected no faults", sc.Name)
		}
		if sc.Requests["total"] == 0 {
			t.Errorf("scenario %s issued no requests", sc.Name)
		}
	}
	if rep.MinRecoveryRatio == nil {
		t.Error("no scenario measured a recovery ratio")
	}
}

// TestUnknownScenarioRejected pins the flag-validation path.
func TestUnknownScenarioRejected(t *testing.T) {
	if _, err := chaos.Run(chaos.Options{Seed: 1, Scenarios: []string{"nope"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

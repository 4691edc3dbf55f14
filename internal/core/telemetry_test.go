package core

import (
	"bytes"
	"testing"

	"repro/internal/scalar"
	"repro/internal/telemetry"
)

// TestTableIBnBProgress checks the acceptance criterion that the
// branch-and-bound solver reports at least one progress event
// (incumbent or bound improvement) on the Table I workload. It reads
// the solve TestTableI checks (solveTableI).
func TestTableIBnBProgress(t *testing.T) {
	run, err := solveTableI()
	if err != nil {
		t.Fatal(err)
	}
	if run.incumbents+run.bounds < 1 {
		t.Fatalf("no incumbent/bound progress events on the Table I workload (incumbents=%d bounds=%d)",
			run.incumbents, run.bounds)
	}
	if run.done != 1 {
		t.Fatalf("done events = %d, want 1", run.done)
	}
	if run.res.Makespan <= 0 {
		t.Fatalf("Table I makespan = %d", run.res.Makespan)
	}
}

// TestProcessorTelemetry builds one processor with a telemetry recorder
// and exercises both the wall-clock pipeline spans and the cycle-domain
// SM timeline.
func TestProcessorTelemetry(t *testing.T) {
	rec := telemetry.NewRecorder()
	p, err := New(Config{Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"trace/functional": false, "schedule/functional": false,
		"trace/endo": false, "schedule/endo": false,
	}
	for _, ev := range rec.Events() {
		if ev.Cat == "core.pipeline" && ev.Phase == telemetry.PhaseComplete {
			if _, ok := want[ev.Name]; ok {
				want[ev.Name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("missing pipeline span %q", name)
		}
	}

	k := scalar.Scalar{0x1234, 0x5678, 0x9ABC, 0xDEF0}
	var buf bytes.Buffer
	st, err := p.TraceScalarMult(k, &buf)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var issueSlices int
	for _, ev := range evs {
		if ev.Phase == telemetry.PhaseComplete && ev.Cat == "issue" {
			issueSlices++
		}
	}
	if wantSlices := st.MulIssues + st.AddIssues; issueSlices != wantSlices {
		t.Fatalf("trace has %d issue slices, want %d (one per issue)", issueSlices, wantSlices)
	}
	if st.AddUtilization <= 0 || st.MulUtilization <= 0 {
		t.Fatalf("utilization not populated: %+v", st)
	}
}

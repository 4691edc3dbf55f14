package core

import (
	"fmt"
	"testing"
)

// TestPinnedSchedules pins the exact, host-independent values of every
// row of the program table under the default list schedule: makespan
// and schedule hash (the modeled-silicon cycles/SM the paper reports
// are properties of these schedules), the functional trace's op count,
// the paper-comparable endo cycle count and the comb's ROM. A change
// that moves one of them moves the reported silicon numbers, so it must
// update this table on purpose.
func TestPinnedSchedules(t *testing.T) {
	p := getFBProcessor(t)
	for _, c := range []struct {
		id       ProgramID
		makespan int
		hash     string
	}{
		{ProgramVariableBase, 3940, "f83eb99ca3a4bfae"},
		{ProgramFixedBase, 1128, "82d4417b9c7d29fa"},
		{ProgramEndo, 1869, "2a737df3f156cfde"},
	} {
		r := p.progs[c.id].result
		if got := fmt.Sprintf("%016x", r.ScheduleHash); r.Makespan != c.makespan || got != c.hash {
			t.Errorf("%s: makespan %d hash %s, want %d %s", c.id, r.Makespan, got, c.makespan, c.hash)
		}
	}
	if got := p.CyclesEndoModeled(); got != 1981 {
		t.Errorf("CyclesEndoModeled = %d, want 1981", got)
	}
	if got := p.TraceStats().Total; got != 4663 {
		t.Errorf("functional trace ops = %d, want 4663", got)
	}
	fb := p.FixedBaseScheduleResult().Program
	if got := len(fb.ROMWindows); got != 62 {
		t.Errorf("comb ROM windows = %d, want 62", got)
	}
	if got := p.FixedBaseCompiled().Stats().ROMReads; got != 248 {
		t.Errorf("comb ROM reads = %d, want 248", got)
	}
}

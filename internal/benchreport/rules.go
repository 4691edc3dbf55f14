package benchreport

import (
	"fmt"
	"io"
	"sort"
)

// Kind says how a rule compares a metric.
type Kind uint8

const (
	// Exact metrics are properties of the offline-solved schedule
	// (cycle counts, schedule hashes, ROM sizes): equal on every host,
	// so a report must match the recorded baseline with zero tolerance.
	Exact Kind = iota
	// Host metrics are host SM/s, higher is better. Absolute host
	// numbers do not carry between machines or sessions, so they are
	// compared only in pairs: runs of the parent and the child build
	// interleaved on one host.
	Host
)

// Rule is one row of the comparison table.
type Rule struct {
	// Metric is the report path of the compared value.
	Metric string
	Kind   Kind
	// value extracts the metric from a decoded report; ok is false when
	// the report does not carry it.
	value func(*Report) (v any, ok bool)
}

// Rules is the comparison table.
var Rules = []Rule{
	{"latency.cycles_functional", Exact, of(func(l *Latency) any { return l.CyclesFunctional })},
	{"latency.cycles_endo_modeled", Exact, of(func(l *Latency) any { return l.CyclesEndoModeled })},
	{"sched.trace_ops", Exact, of(func(s *Sched) any { return s.TraceOps })},
	{"sched.lower_bound", Exact, of(func(s *Sched) any { return s.LowerBound })},
	{"sched.single.makespan", Exact, of(func(s *Sched) any { return s.Single.Makespan })},
	{"sched.portfolio.makespan", Exact, of(func(s *Sched) any { return s.Portfolio.Makespan })},
	{"sched.schedule_hash", Exact, of(func(s *Sched) any { return s.ScheduleHash })},
	{"fixedbase.trace_ops", Exact, of(func(f *FixedBase) any { return f.TraceOps })},
	{"fixedbase.lower_bound", Exact, of(func(f *FixedBase) any { return f.LowerBound })},
	{"fixedbase.single.makespan", Exact, of(func(f *FixedBase) any { return f.Single.Makespan })},
	{"fixedbase.portfolio.makespan", Exact, of(func(f *FixedBase) any { return f.Portfolio.Makespan })},
	{"fixedbase.schedule_hash", Exact, of(func(f *FixedBase) any { return f.ScheduleHash })},
	{"fixedbase.rom_windows", Exact, of(func(f *FixedBase) any { return f.ROMWindows })},
	{"fixedbase.rom_reads", Exact, of(func(f *FixedBase) any { return f.ROMReads })},

	{"latency.single_thread.compiled_sm_per_sec", Host, of(func(l *Latency) any { return l.SingleThread.CompiledSMPerSec })},
	{"throughput.points[].sm_per_sec (peak)", Host, of(func(t *Throughput) any { return t.PeakSMPerSec() })},
	{"batch.peak_lane_sm_per_sec", Host, of(func(b *Batch) any { return b.PeakLaneSMPerSec })},
	{"serve.goodput_sm_per_sec", Host, of(func(s *Serve) any { return s.GoodputSMPerSec })},
}

// of adapts a getter on experiment type T into a Rule's value: a report
// carries the metric when it carries an experiment of type T.
func of[T any](get func(*T) any) func(*Report) (any, bool) {
	return func(r *Report) (any, bool) {
		for _, e := range r.Experiments {
			if t, ok := e.(*T); ok {
				return get(t), true
			}
		}
		return nil, false
	}
}

// CompareExact requires every Exact row carried by both base and cur to
// be equal, and at least one to be shared: a gate that compares nothing
// must not pass.
func CompareExact(w io.Writer, base, cur *Report) error {
	compared := 0
	for _, r := range Rules {
		if r.Kind != Exact {
			continue
		}
		b, okB := r.value(base)
		c, okC := r.value(cur)
		if !okB || !okC {
			continue
		}
		compared++
		if b != c {
			return fmt.Errorf("exact: %s = %v, baseline %v (exact values allow no drift)", r.Metric, c, b)
		}
		fmt.Fprintf(w, "exact: %s = %v\n", r.Metric, c)
	}
	if compared == 0 {
		return fmt.Errorf("exact: no exact metric shared by the report and the baseline")
	}
	return nil
}

// ComparePaired gates every Host row carried by all pairs
// (parents[i], heads[i]): the median of the per-pair head/parent
// ratios must be at least 1 - tol. Interleaving the runs on one host
// cancels the host's drift, which absolute baselines cannot.
func ComparePaired(w io.Writer, parents, heads []*Report, tol float64) error {
	if len(parents) == 0 || len(parents) != len(heads) {
		return fmt.Errorf("paired: %d parent reports for %d reports, want equal and > 0", len(parents), len(heads))
	}
	compared := 0
	for _, r := range Rules {
		if r.Kind != Host {
			continue
		}
		ratios := make([]float64, 0, len(heads))
		for i := range heads {
			p, okP := r.value(parents[i])
			h, okH := r.value(heads[i])
			if okP && okH && p.(float64) > 0 {
				ratios = append(ratios, h.(float64)/p.(float64))
			}
		}
		if len(ratios) == 0 {
			continue
		}
		if len(ratios) != len(heads) {
			return fmt.Errorf("paired: %s carried by %d of %d pairs", r.Metric, len(ratios), len(heads))
		}
		compared++
		med := median(ratios)
		fmt.Fprintf(w, "paired: %s median head/parent %.3f over %d pairs %.3f\n", r.Metric, med, len(ratios), ratios)
		if med < 1-tol {
			return fmt.Errorf("paired: regression: %s median head/parent ratio %.3f, below %.3f (%.0f%% tolerance)",
				r.Metric, med, 1-tol, 100*tol)
		}
	}
	if compared == 0 {
		return fmt.Errorf("paired: no host metric shared by the pairs")
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

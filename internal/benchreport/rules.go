package benchreport

import (
	"fmt"
	"io"
	"sort"
	"strings"
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
	// Metric is the report path of the compared value; a per-program
	// metric's "[]" stands for the program row.
	Metric string
	Kind   Kind
	// values extracts the metric from a decoded report, keyed by
	// program row ("" for a metric outside the program table); nil when
	// the report does not carry it.
	values func(*Report) map[string]any
}

// name is the metric's path for row key.
func (r Rule) name(key string) string {
	if key == "" {
		return r.Metric
	}
	return strings.Replace(r.Metric, "[]", "["+key+"]", 1)
}

// Rules is the comparison table.
var Rules = []Rule{
	{"latency.cycles_functional", Exact, of(func(l *Latency) any { return l.CyclesFunctional })},
	{"latency.cycles_endo_modeled", Exact, of(func(l *Latency) any { return l.CyclesEndoModeled })},
	{"sched.programs[].trace_ops", Exact, perProgram(func(r *SchedRow) any { return r.TraceOps })},
	{"sched.programs[].lower_bound", Exact, perProgram(func(r *SchedRow) any { return r.LowerBound })},
	{"sched.programs[].single.makespan", Exact, perProgram(func(r *SchedRow) any { return r.Single.Makespan })},
	{"sched.programs[].portfolio.makespan", Exact, perProgram(func(r *SchedRow) any { return r.Portfolio.Makespan })},
	{"sched.programs[].schedule_hash", Exact, perProgram(func(r *SchedRow) any { return r.ScheduleHash })},
	{"sched.programs[].rom_windows", Exact, perProgram(func(r *SchedRow) any { return r.ROMWindows })},
	{"sched.programs[].rom_reads", Exact, perProgram(func(r *SchedRow) any { return r.ROMReads })},

	{"latency.single_thread.compiled_sm_per_sec", Host, of(func(l *Latency) any { return l.SingleThread.CompiledSMPerSec })},
	{"throughput.points[].sm_per_sec (peak)", Host, of(func(t *Throughput) any { return t.PeakSMPerSec() })},
	{"batch.peak_lane_sm_per_sec", Host, of(func(b *Batch) any { return b.PeakLaneSMPerSec })},
	{"serve.goodput_sm_per_sec", Host, of(func(s *Serve) any { return s.GoodputSMPerSec })},
}

// experiment returns the report's experiment of type T, or nil.
func experiment[T any](r *Report) *T {
	for _, e := range r.Experiments {
		if t, ok := e.(*T); ok {
			return t
		}
	}
	return nil
}

// of adapts a getter on experiment type T into a Rule's values: a
// report carries the metric when it carries an experiment of type T.
func of[T any](get func(*T) any) func(*Report) map[string]any {
	return func(r *Report) map[string]any {
		if t := experiment[T](r); t != nil {
			return map[string]any{"": get(t)}
		}
		return nil
	}
}

// perProgram adapts a getter on a sched row into a Rule's values, one
// per program row of the report's sched experiment.
func perProgram(get func(*SchedRow) any) func(*Report) map[string]any {
	return func(r *Report) map[string]any {
		s := experiment[Sched](r)
		if s == nil {
			return nil
		}
		m := make(map[string]any, len(s.Programs))
		for i := range s.Programs {
			m[s.Programs[i].Program] = get(&s.Programs[i])
		}
		return m
	}
}

// CompareExact requires every Exact value carried by base to be equal
// in cur, for every program row of base (a row the report lacks
// fails), and at least one value to be shared: a gate that compares
// nothing must not pass. An experiment cur does not carry is skipped.
func CompareExact(w io.Writer, base, cur *Report) error {
	compared := 0
	for _, r := range Rules {
		if r.Kind != Exact {
			continue
		}
		b, c := r.values(base), r.values(cur)
		if b == nil || c == nil {
			continue
		}
		for _, key := range sortedKeys(b) {
			cv, ok := c[key]
			if !ok {
				return fmt.Errorf("exact: %s: the report has no %s row (every baseline program must be reproduced)", r.name(key), key)
			}
			compared++
			if b[key] != cv {
				return fmt.Errorf("exact: %s = %v, baseline %v (exact values allow no drift)", r.name(key), cv, b[key])
			}
			fmt.Fprintf(w, "exact: %s = %v\n", r.name(key), cv)
		}
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
			p, okP := r.values(parents[i])[""].(float64)
			h, okH := r.values(heads[i])[""].(float64)
			if okP && okH && p > 0 {
				ratios = append(ratios, h/p)
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

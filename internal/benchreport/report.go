// Package benchreport is the fourq-bench/v1 report schema, written by
// every measurement tool (fourq-bench, fourq-loadgen, fourq-chaos) and
// read by its checker (scripts/benchcheck). It holds the envelope, one
// type per checked experiment with the Check method that validates it
// (the fault and chaos campaigns keep their report types in
// internal/fault and internal/chaos), and the rule table that compares
// reports: exact values against a recorded baseline with zero
// tolerance, host speed between interleaved runs of a parent and a
// child build.
//
// Producers fill these types and checkers decode into them, so each
// report field is declared once. Adding an experiment costs one type
// with a Check method and one entry in experiments.
package benchreport

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/fault"
)

// Schema identifies the report format.
const Schema = "fourq-bench/v1"

// Report is one document: the experiments a run executed, keyed by
// name, and the experiments that failed. A decoded report holds a
// pointer to its type for every checked experiment and the raw JSON of
// any other.
type Report struct {
	Schema      string         `json:"schema"`
	Experiments map[string]any `json:"experiments"`
	// Errors records experiments that failed mid-run, keyed by name. A
	// report carrying any fails Check even though it parses: a partial
	// report must never masquerade as a clean one.
	Errors map[string]string `json:"errors,omitempty"`
}

// Experiment is a checked experiment entry.
type Experiment interface {
	// Check validates the entry's internal consistency.
	Check() error
}

// experiments maps each checked experiment's name to its type.
var experiments = map[string]func() Experiment{
	"profile":    func() Experiment { return new(Profile) },
	"latency":    func() Experiment { return new(Latency) },
	"throughput": func() Experiment { return new(Throughput) },
	"batch":      func() Experiment { return new(Batch) },
	"sched":      func() Experiment { return new(Sched) },
	"serve":      func() Experiment { return new(Serve) },
	"faults":     func() Experiment { return new(fault.Report) },
	"chaos":      func() Experiment { return new(chaos.Report) },
}

// New returns an empty report.
func New() *Report {
	return &Report{Schema: Schema, Experiments: map[string]any{}}
}

// Add records experiment name's result.
func (r *Report) Add(name string, v any) { r.Experiments[name] = v }

// Fail records that experiment name failed.
func (r *Report) Fail(name string, err error) {
	if r.Errors == nil {
		r.Errors = map[string]string{}
	}
	r.Errors[name] = err.Error()
}

// WriteFile writes r to path as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Decode parses a document. Each checked experiment decodes into its
// type and must carry every field that type always writes: a zero
// value and an absent field decode alike, so presence is what tells a
// complete entry from a truncated one.
func Decode(data []byte) (*Report, error) {
	var doc struct {
		Schema      string                     `json:"schema"`
		Experiments map[string]json.RawMessage `json:"experiments"`
		Errors      map[string]string          `json:"errors"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	r := &Report{Schema: doc.Schema, Experiments: map[string]any{}, Errors: doc.Errors}
	for _, name := range sortedKeys(doc.Experiments) {
		raw := doc.Experiments[name]
		mk, ok := experiments[name]
		if !ok {
			r.Experiments[name] = raw
			continue
		}
		e := mk()
		if err := json.Unmarshal(raw, e); err != nil {
			return nil, fmt.Errorf("%s: parse: %w", name, err)
		}
		if path := missing(raw, e); path != "" {
			return nil, fmt.Errorf("%s: %s missing", name, path)
		}
		r.Experiments[name] = e
	}
	return r, nil
}

// Check validates a decoded report: the schema, no failed experiment,
// at least one checked experiment, and each checked experiment's own
// Check.
func (r *Report) Check() error {
	if r.Schema != Schema {
		return fmt.Errorf("schema = %q, want %s", r.Schema, Schema)
	}
	if len(r.Errors) > 0 {
		return fmt.Errorf("report records failed experiments: %s", strings.Join(sortedKeys(r.Errors), ", "))
	}
	if len(r.Experiments) == 0 {
		return fmt.Errorf("no experiments in report")
	}
	checked := 0
	for _, name := range sortedKeys(r.Experiments) {
		e, ok := r.Experiments[name].(Experiment)
		if !ok {
			continue
		}
		checked++
		if err := e.Check(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if checked == 0 {
		return fmt.Errorf("no checked experiment in report (run -exp latency or -exp profile for rtl_stats)")
	}
	return nil
}

// missing returns the path of the first field that v, re-encoded,
// carries and raw lacks, or "" when raw has them all. Fields tagged
// omitempty are only required when set.
func missing(raw []byte, v any) string {
	full, err := json.Marshal(v)
	if err != nil {
		return "" // v was just decoded from raw; it re-encodes
	}
	var want, got any
	if json.Unmarshal(full, &want) != nil || json.Unmarshal(raw, &got) != nil {
		return ""
	}
	return missingIn(want, got, "")
}

func missingIn(want, got any, path string) string {
	switch w := want.(type) {
	case map[string]any:
		g, _ := got.(map[string]any)
		for _, k := range sortedKeys(w) {
			p := k
			if path != "" {
				p = path + "." + k
			}
			gv, ok := g[k]
			if !ok {
				return p
			}
			if m := missingIn(w[k], gv, p); m != "" {
				return m
			}
		}
	case []any:
		g, _ := got.([]any)
		for i := 0; i < len(w) && i < len(g); i++ {
			if m := missingIn(w[i], g[i], fmt.Sprintf("%s[%d]", path, i)); m != "" {
				return m
			}
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

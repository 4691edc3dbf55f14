package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchreport"
)

// TestExecuteContinuesPastFailure is the regression test for the
// exit-code bug: a failure mid-list used to abort the run; it must now
// let the remaining experiments execute, still write the JSON report
// (with the failure recorded under "errors"), and return a non-nil
// error so main exits non-zero.
func TestExecuteContinuesPastFailure(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	b := &bench{rep: benchreport.New()}

	var ranAfter bool
	boom := errors.New("synthetic experiment failure")
	steps := []step{
		{"first", func() error { b.rep.Add("first", map[string]any{"ok": true}); return nil }},
		{"broken", func() error { return boom }},
		{"after", func() error {
			ranAfter = true
			b.rep.Add("after", map[string]any{"ok": true})
			return nil
		}},
	}

	err := execute(b, steps, "all", jsonPath, "")
	if err == nil {
		t.Fatal("execute returned nil despite a failing experiment")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("returned error %v does not wrap the experiment failure", err)
	}
	if !ranAfter {
		t.Fatal("experiment after the failing one did not run")
	}

	data, rerr := os.ReadFile(jsonPath)
	if rerr != nil {
		t.Fatalf("JSON report not written after failure: %v", rerr)
	}
	rep, err := benchreport.Decode(data)
	if err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Schema != benchreport.Schema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if _, ok := rep.Experiments["first"]; !ok {
		t.Error("successful experiment before the failure missing from report")
	}
	if _, ok := rep.Experiments["after"]; !ok {
		t.Error("successful experiment after the failure missing from report")
	}
	if msg, ok := rep.Errors["broken"]; !ok || msg == "" {
		t.Errorf("failure not recorded under errors: %v", rep.Errors)
	}
}

// TestExecuteCleanRunHasNoErrors pins the happy path: no "errors" key
// in the document and a nil return.
func TestExecuteCleanRunHasNoErrors(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	b := &bench{rep: benchreport.New()}
	steps := []step{{"only", func() error { b.rep.Add("only", map[string]any{}); return nil }}}
	if err := execute(b, steps, "all", jsonPath, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["errors"]; ok {
		t.Fatal("clean run emitted an errors key")
	}
}

// TestExecuteUnknownExperiment keeps the unknown-name diagnostics.
func TestExecuteUnknownExperiment(t *testing.T) {
	b := &bench{rep: benchreport.New()}
	err := execute(b, []step{{"real", func() error { return nil }}}, "nope", "", "")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

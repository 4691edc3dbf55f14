package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/schnorrq"
	"repro/internal/serve"
)

// The oracle must accept the right answer and reject a corrupted one,
// for every workload's response format.
func TestOracleRejectsCorruptedSign(t *testing.T) {
	w := newSignLoad(7)
	for i := 0; i < 4; i++ {
		ks, msg := w.input(i)
		key, err := schnorrq.NewKeyFromSeed(ks)
		if err != nil {
			t.Fatal(err)
		}
		sig, pub := key.Sign(msg), key.Public.Bytes()
		if i == 2 {
			sig[5] ^= 1
		}
		body, _ := json.Marshal(serve.SignResponse{Sig: hex.EncodeToString(sig[:]), Pub: hex.EncodeToString(pub[:])})
		if err := w.check(i, body); err != nil {
			t.Fatal(err)
		}
	}
	if wrong := w.finish(); wrong != 1 {
		t.Fatalf("finish found %d wrong answers, want exactly the corrupted one", wrong)
	}
}

func TestOracleRejectsCorruptedVerify(t *testing.T) {
	w, err := newVerifyLoad(7)
	if err != nil {
		t.Fatal(err)
	}
	sawForged := false
	for i := 0; i < 64; i++ {
		_, _, valid := w.plan(i)
		sawForged = sawForged || !valid
		right, _ := json.Marshal(serve.VerifyResponse{Valid: valid})
		wrong, _ := json.Marshal(serve.VerifyResponse{Valid: !valid})
		if err := w.check(i, right); err != nil {
			t.Fatalf("request %d: right verdict rejected: %v", i, err)
		}
		if err := w.check(i, wrong); err == nil {
			t.Fatalf("request %d: flipped verdict accepted", i)
		}
	}
	if !sawForged {
		t.Fatal("64 requests carried no forged item")
	}
	if err := w.check(0, []byte(`{"shard":0}`)); err == nil {
		t.Fatal("answer without a verdict accepted")
	}
}

func TestOracleRejectsCorruptedScalarMult(t *testing.T) {
	w := &scalarMultLoad{seed: 7, pool: newSMPoolN(7, 8)}
	want := smStream(w.seed, w.pool, 3).enc
	right, _ := json.Marshal(serve.ScalarMultResponse{Point: want})
	if err := w.check(3, right); err != nil {
		t.Fatal(err)
	}
	bad := []byte(want)
	bad[0] ^= 1
	wrong, _ := json.Marshal(serve.ScalarMultResponse{Point: string(bad)})
	if err := w.check(3, wrong); err == nil {
		t.Fatal("corrupted point accepted")
	}
}

// Inputs are a pure function of the seed.
func TestInputsFollowSeed(t *testing.T) {
	a, b, c := newSignLoad(1), newSignLoad(1), newSignLoad(2)
	if string(a.request(9).body) != string(b.request(9).body) {
		t.Fatal("same seed, different request")
	}
	if string(a.request(9).body) == string(c.request(9).body) {
		t.Fatal("different seeds, same request")
	}
	if string(a.request(9).body) == string(a.request(10).body) {
		t.Fatal("two requests share a key and message")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The metric names the program emits are exactly those BENCHMARK.json
// declares, and every name and unit keeps to the charset BENCHMARK.json
// allows.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	// Each serving workload's "why" records the latency limit it runs at.
	limits := map[string]float64{signSpec.name: signSpec.limitMs, verifySpec.name: verifySpec.limitMs}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %q, which the program does not run", w.Name)
		}
		if limit, ok := limits[w.Name]; ok && !strings.Contains(w.Why, fmt.Sprintf("p99 limit %v ms", limit)) {
			t.Errorf("workload %q: why %q does not record the %v ms limit", w.Name, w.Why, limit)
		}
	}
	for _, c := range []struct {
		declared []m
		emitted  map[string]string
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		seen := map[string]bool{}
		for _, d := range c.declared {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%q (unit %q) breaks the name or unit charset", d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("%q declared twice", d.Name)
			}
			seen[d.Name] = true
			if unit, ok := c.emitted[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%q: declared unit %q, program emits %q (present %v)", d.Name, d.Unit, unit, ok)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%q: better is %q", d.Name, d.Better)
			}
		}
		for name := range c.emitted {
			if !seen[name] {
				t.Errorf("program emits %q, which BENCHMARK.json does not declare", name)
			}
		}
	}
	if err := checkMetrics(metrics{"setup_s": {1, "s"}}, endToEndMetrics); err == nil {
		t.Error("checkMetrics accepted an incomplete set")
	}
	full := metrics{}
	for name, unit := range endToEndMetrics {
		full.set(name, unit, 1)
	}
	if err := checkMetrics(full, endToEndMetrics); err != nil {
		t.Errorf("checkMetrics rejected the full set: %v", err)
	}
	full.set("extra", "s", 1)
	if err := checkMetrics(full, endToEndMetrics); err == nil {
		t.Error("checkMetrics accepted an undeclared metric")
	}
}

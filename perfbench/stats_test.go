package main

import (
	"encoding/json"
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	cases := []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	withFail := []float64{1, 2, math.Inf(1)}
	if got := percentile(withFail, 0.99); !math.IsInf(got, 1) {
		t.Errorf("a failed request must count as missing the limit, got p99 %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// synthetic models a server with capacity capRPS: latencies are low
// below it and blow up above it.
func synthetic(rate, capRPS float64) rungStats {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 1 + float64(i%10)*0.1
		if rate > capRPS {
			lat[i] *= 50
		}
	}
	return rungStats{sent: len(lat), p99ms: percentile(lat, 0.99)}
}

func TestLadderFindsCapacity(t *testing.T) {
	l := ladder{base: 100, ratio: 1.05, top: 90}
	for _, capRPS := range []float64{90, 100, 333, 1000, 1234, 1e6} {
		want := -1
		for k := 0; k <= l.top && l.rate(k) <= capRPS; k++ {
			want = k
		}
		// Cold searches from the bottom and the middle, and warm ones
		// from the answer and from stale answers on either side.
		for _, start := range []struct{ k0, step int }{{0, 8}, {45, 8}, {want, 1}, {want + 5, 1}, {want - 3, 1}} {
			probes := 0
			best, ok := l.search(start.k0, start.step, func(k int) (bool, bool) {
				probes++
				pass, _ := verdict(synthetic(l.rate(k), capRPS), l.rate(k), 5, 2)
				return pass, true
			})
			if !ok || best != want {
				t.Errorf("cap %v from %+v: found rung %d (ok %v), want %d", capRPS, start, best, ok, want)
			}
			if probes > 16 {
				t.Errorf("cap %v from %+v: %d probes", capRPS, start, probes)
			}
		}
	}
}

func TestLadderStopsWhenBudgetRunsOut(t *testing.T) {
	l := ladder{base: 100, ratio: 1.05, top: 90}
	calls := 0
	best, ok := l.search(0, 8, func(k int) (bool, bool) {
		calls++
		return true, calls < 3
	})
	if ok || best != 8 {
		t.Fatalf("got best %d ok %v, want the last pass (8) and ok false", best, ok)
	}
}

func TestVerdict(t *testing.T) {
	base := rungStats{sent: 1000, p99ms: 2}
	if pass, why := verdict(base, 500, 5, 2); !pass {
		t.Fatalf("healthy rung failed: %s", why)
	}
	cases := map[string]rungStats{
		"p99 over limit":   {sent: 1000, p99ms: 6},
		"failures >= 1%":   {sent: 1000, failed: 10, p99ms: 2},
		"backlog grew":     {sent: 1000, p99ms: 2, backlogMid: 3, backlogEnd: 40},
		"backlog overflow": {sent: 1000, p99ms: 2, aborted: true},
	}
	for want, s := range cases {
		if pass, why := verdict(s, 500, 5, 2); pass || why != want {
			t.Errorf("%s: got pass=%v %q", want, pass, why)
		}
	}
}

func TestCrossing(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		pts  []point
		want float64
	}{
		{[]point{{100, 2}, {110, 4}, {120, 6}}, 115},
		{[]point{{100, 2}, {110, 4}, {120, inf}}, 110},
		{[]point{{100, 2}, {110, 3}, {120, 4}}, 120},
		{[]point{{100, 10}, {110, 12}, {120, 14}}, 50},
		{[]point{{100, inf}, {110, inf}, {120, inf}}, 50},
	}
	for _, c := range cases {
		if got := crossing(c.pts, 5); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("crossing(%v) = %v, want %v", c.pts, got, c.want)
		}
	}
}

// Capacity is anchored at the search's answer: a stale failing rung
// below it, left by an earlier search, does not pull the crossing down.
func TestBracketAnchorsAtAnswer(t *testing.T) {
	inf := math.Inf(1)
	pts := map[int]point{
		3: {100, inf}, // failed once in an earlier search, never re-run
		5: {110, 8},
		6: {120, 2},
		7: {130, 4},
		8: {140, 6},
		9: {150, 7},
	}
	if got := crossing(bracket(pts, 7, 5), 5); math.Abs(got-135) > 1e-9 {
		t.Errorf("anchored at rung 7: got %v, want 135", got)
	}
	if got := crossing(bracket(map[int]point{3: {100, inf}, 6: {120, 2}}, 6, 5), 5); got != 120 {
		t.Errorf("no failing rung above the answer: got %v, want 120", got)
	}
	if got := crossing(bracket(pts, 8, 5), 5); math.Abs(got-135) > 1e-9 {
		t.Errorf("answer rung 8 failed on a re-run: got %v, want 135 (from rung 7)", got)
	}
	if got := crossing(bracket(map[int]point{0: {100, 10}}, 0, 5), 5); got != 50 {
		t.Errorf("failing bottom rung: got %v, want 50", got)
	}
}

// A rung whose p99 is +Inf must not make the report unencodable.
func TestReportEncodesInfiniteLatency(t *testing.T) {
	inf := math.Inf(1)
	r := rungResult{Rate: 100, P50ms: 1, P99ms: inf, LagP99ms: math.NaN(), RunP99ms: []float64{2, inf}}
	b, err := json.Marshal(map[string]any{"rungs": []rungResult{r}, "p99_ms": finite(inf)})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"p99_ms":null,"rungs":[{"rate_rps":100,"seconds":0,"sent":0,"ok":0,"shed":0,"errors":0,"wrong":0,"ok_sms":0,` +
		`"backlog_mid":0,"backlog_end":0,"pass":false,"verdict":"","p50_ms":1,"p99_ms":null,"lag_p99_ms":null,"run_p99_ms":[2,null]}]}`
	if string(b) != want {
		t.Errorf("got  %s\nwant %s", b, want)
	}
}

// A pooled rung passes when at least a third of its runs met the limit.
func TestFinishPoolLowerTercile(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		runs    []float64
		pass    bool
		verdict string
	}{
		{[]float64{10}, true, "pass"},
		{[]float64{30, 10, 40}, true, "pass"},
		{[]float64{30, 40, 50, 10}, false, verdictLatency},
		{[]float64{30, 40, 10, 12, 90, inf}, true, "pass"},
		{[]float64{inf, inf, 10}, true, "pass"},
		{[]float64{inf, 30, inf}, false, verdictLatency},
		{[]float64{inf, inf, 10, inf}, false, "runs failed"},
	}
	for _, c := range cases {
		r := rungResult{RunP99ms: c.runs}
		r.finishPool(25)
		if r.Pass != c.pass || r.Verdict != c.verdict {
			t.Errorf("runs %v: got pass=%v %q, want %v %q", c.runs, r.Pass, r.Verdict, c.pass, c.verdict)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loadgen is the one open-loop generator: conns workers, each holding at
// most one request in flight on its own keep-alive connection, send
// request j at its due time t0 + j/rate. A worker that is still busy
// when a request falls due sends it late; the request's latency is
// timed from when it was due, so stalls are charged to every request
// they delay.
type loadgen struct {
	client *http.Client
	url    string
	conns  int
	load   workload
	next   int // index of the next request of the workload's stream
	spans  *recorder
}

func newLoadgen(url string, conns int, load workload, spans *recorder) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadgen{client: &http.Client{Transport: tr, Timeout: 10 * time.Second}, url: url, conns: conns, load: load, spans: spans}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// rungResult is one offered rate held for a fixed time.
type rungResult struct {
	Rate       float64   `json:"rate_rps"`
	Seconds    float64   `json:"seconds"`
	Sent       int       `json:"sent"`
	OK         int       `json:"ok"`
	Shed       int       `json:"shed"`
	Errors     int       `json:"errors"`
	Wrong      int       `json:"wrong"`
	OKSMs      int       `json:"ok_sms"`
	P50ms      float64   `json:"p50_ms"`
	P99ms      float64   `json:"p99_ms"`
	LagP99ms   float64   `json:"lag_p99_ms"`
	BacklogMid int       `json:"backlog_mid"`
	BacklogEnd int       `json:"backlog_end"`
	Aborted    bool      `json:"aborted,omitempty"`
	Pass       bool      `json:"pass"`
	Verdict    string    `json:"verdict"`
	Runs       int       `json:"runs,omitempty"`
	RunP99ms   []float64 `json:"run_p99_ms,omitempty"`

	lat []float64 // latency of every sent request, ms; +Inf if failed
}

// MarshalJSON writes the latencies that are not finite (+Inf for a
// failed rung or run), which JSON cannot hold, as null.
func (r rungResult) MarshalJSON() ([]byte, error) {
	type plain rungResult
	runs := make([]*float64, len(r.RunP99ms))
	for i, v := range r.RunP99ms {
		runs[i] = finite(v)
	}
	if len(runs) == 0 {
		runs = nil
	}
	return json.Marshal(struct {
		plain
		P50ms    *float64   `json:"p50_ms"`
		P99ms    *float64   `json:"p99_ms"`
		LagP99ms *float64   `json:"lag_p99_ms"`
		RunP99ms []*float64 `json:"run_p99_ms,omitempty"`
	}{plain(r), finite(r.P50ms), finite(r.P99ms), finite(r.LagP99ms), runs})
}

// finite returns &v, or nil (JSON null) when v is infinite or NaN.
func finite(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// score is a run's p99, or +Inf when the run failed for another reason
// than latency (failures, a growing backlog, an overflow).
func (r rungResult) score() float64 {
	if !r.Pass && r.Verdict != verdictLatency {
		return math.Inf(1)
	}
	return r.P99ms
}

// pool adds another run of the same rate into r.
func (r *rungResult) pool(o rungResult) {
	r.Seconds += o.Seconds
	r.Sent += o.Sent
	r.OK += o.OK
	r.Shed += o.Shed
	r.Errors += o.Errors
	r.Wrong += o.Wrong
	r.OKSMs += o.OKSMs
	r.LagP99ms = max(r.LagP99ms, o.LagP99ms)
	r.BacklogMid = max(r.BacklogMid, o.BacklogMid)
	r.BacklogEnd = max(r.BacklogEnd, o.BacklogEnd)
	r.Aborted = r.Aborted || o.Aborted
	r.Runs++
	r.RunP99ms = append(r.RunP99ms, o.score())
	r.lat = append(r.lat, o.lat...)
}

// passQuantile is the quantile of a pooled rung's run scores that
// judges it: the rung passes when at least a third of its runs met the
// limit. On a shared host, stalls make some seconds miss the limit at
// any rate; overload makes every second miss it, because the backlog
// alone, one rung above capacity, puts p99 past the limit within the
// second.
const passQuantile = 1.0 / 3

// finishPool judges a pooled rung: p99 is the passQuantile of the runs'
// p99s (+Inf for a run that failed otherwise), so a few seconds in
// which the host stalled cannot decide the rung. p50 is over every
// pooled request.
func (r *rungResult) finishPool(limitMs float64) {
	r.P50ms = percentile(r.lat, 0.5)
	r.P99ms = percentile(append([]float64(nil), r.RunP99ms...), passQuantile)
	switch {
	case r.P99ms <= limitMs:
		r.Pass, r.Verdict = true, "pass"
	case math.IsInf(r.P99ms, 1):
		r.Pass, r.Verdict = false, "runs failed"
	default:
		r.Pass, r.Verdict = false, verdictLatency
	}
}

func (r rungResult) failed() int { return r.Shed + r.Errors + r.Wrong }

// abortBacklog is how much queued work (in seconds of offered load) a
// rung may accumulate before it stops sending: by then every further
// request would miss any latency limit the workloads use.
const abortBacklog = 0.25

// post sends one request and returns its status and body.
func (g *loadgen) post(req request) (int, []byte, error) {
	resp, err := g.client.Post(g.url+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// rung offers rate requests per second for dur and reports the
// latencies from due time, the outcome counts and the backlog.
func (g *loadgen) rung(rate float64, dur time.Duration, limitMs float64) rungResult {
	n := int(math.Round(rate * dur.Seconds()))
	start := g.next
	g.next += n
	res := rungResult{Rate: rate, Seconds: dur.Seconds()}
	lat := make([]float64, n)
	var taken, done atomic.Int64
	var abort atomic.Bool
	var mu sync.Mutex
	var lags []float64
	t0 := time.Now().Add(time.Millisecond)
	due := func(j int) time.Time { return t0.Add(time.Duration(float64(j) / rate * float64(time.Second))) }

	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !abort.Load() {
				j := int(taken.Add(1) - 1)
				if j >= n {
					return
				}
				d := due(j)
				lag := -1.0
				if wait := time.Until(d); wait > 0 {
					time.Sleep(wait)
					lag = float64(time.Since(d)) / 1e6
				}
				req := g.load.request(start + j)
				status, body, err := g.post(req)
				end := time.Now()
				lat[j] = float64(end.Sub(d)) / 1e6
				g.spans.add("loadgen.request", int64(start+j), -1, d, end)
				mu.Lock()
				if lag >= 0 {
					lags = append(lags, lag)
				}
				res.Sent++
				switch {
				case err != nil:
					res.Errors++
					lat[j] = math.Inf(1)
				case status == http.StatusServiceUnavailable:
					res.Shed++
					lat[j] = math.Inf(1)
				case status != http.StatusOK:
					res.Errors++
					lat[j] = math.Inf(1)
				default:
					mu.Unlock()
					cerr := g.load.check(start+j, body)
					mu.Lock()
					if cerr != nil {
						res.Wrong++
						lat[j] = math.Inf(1)
						logf("wrong answer: %v", cerr)
					} else {
						res.OK++
						res.OKSMs += req.sms
					}
				}
				mu.Unlock()
				done.Add(1)
			}
		}()
	}

	backlog := func() int {
		dueN := int(time.Since(t0).Seconds()*rate) + 1
		if dueN > n {
			dueN = n
		}
		return dueN - int(done.Load())
	}
	limit := float64(g.conns) + rate*abortBacklog
	tick := time.NewTicker(10 * time.Millisecond)
	half := t0.Add(dur / 2)
	midTaken := false
	for now := range tick.C {
		if !midTaken && now.After(half) {
			res.BacklogMid, midTaken = backlog(), true
		}
		if float64(backlog()) > limit {
			abort.Store(true)
			res.Aborted = true
		}
		if res.Aborted || now.After(t0.Add(dur)) {
			break
		}
	}
	tick.Stop()
	res.BacklogEnd = backlog()
	wg.Wait()

	sent := make([]float64, 0, res.Sent)
	for j := 0; j < n && len(sent) < res.Sent; j++ {
		if lat[j] != 0 {
			sent = append(sent, lat[j])
		}
	}
	res.lat = sent
	res.P50ms = percentile(sent, 0.5)
	res.P99ms = percentile(sent, 0.99)
	res.LagP99ms = percentile(lags, 0.99)
	if len(lags) == 0 {
		res.LagP99ms = 0
	}
	res.Pass, res.Verdict = verdict(rungStats{
		sent: res.Sent, failed: res.failed(), p99ms: res.P99ms,
		backlogMid: res.BacklogMid, backlogEnd: res.BacklogEnd, aborted: res.Aborted,
	}, rate, limitMs, g.conns)
	return res
}

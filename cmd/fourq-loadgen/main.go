// Command fourq-loadgen drives a running fourq-serve instance with an
// open-loop request stream (arrivals paced by a clock, independent of
// response latency — the honest way to measure a service under
// overload) and records the outcome as a "fourq-bench/v1" report:
// latency percentiles over successful requests, goodput in requests
// and scalar-multiplication equivalents per second, and the shed rate
// (clean 503s per offered request).
//
// The workload is deterministic: a fixed mix of scalarmult / sign /
// verify / batch-verify requests built from precomputed payloads, so
// runs are comparable and every 200 is known-verifiable. -metrics-out
// scrapes the server's /metrics at the end of the run, which lets the
// smoke harness assert on the server's own counters without needing
// curl in the image.
package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchreport"
	"repro/internal/scalar"
	"repro/internal/schnorrq"
)

func main() {
	target := flag.String("target", "http://127.0.0.1:7414", "base URL of the fourq-serve instance")
	rps := flag.Float64("rps", 200, "offered request rate (open loop)")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	mix := flag.String("mix", "scalarmult=4,sign=2,verify=3,batch=1", "weighted operation mix")
	batchSize := flag.Int("batch-size", 4, "items per batch-verify request")
	tenant := flag.String("tenant", "", "X-Tenant header value (empty omits the header)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	waitReady := flag.Duration("wait-ready", 0, "poll /healthz up to this long before starting")
	jsonPath := flag.String("json", "", "write the fourq-bench/v1 report to this file")
	metricsOut := flag.String("metrics-out", "", "scrape the server's /metrics into this file after the run")
	expName := flag.String("exp", "serve", "experiment name in the report")
	flag.Parse()

	if err := run(*target, *rps, *duration, *mix, *batchSize, *tenant, *timeout, *waitReady, *jsonPath, *metricsOut, *expName); err != nil {
		fmt.Fprintln(os.Stderr, "fourq-loadgen:", err)
		os.Exit(1)
	}
}

// opKind is one entry of the offered mix: a request payload plus its
// admission weight in scalar-multiplication equivalents (matching the
// server's accounting, so goodput_sm_per_sec is comparable with the
// engine benchmarks).
type opKind struct {
	name   string
	path   string
	body   []byte
	smCost int
}

// buildOps precomputes one deterministic payload per operation kind.
// Every payload is valid, so any non-200 answer is an admission
// decision (shed / throttle), not a validation artifact.
func buildOps(batchSize int) ([]opKind, error) {
	k := scalar.ModN(scalar.Scalar{0x9E3779B97F4A7C15, 7, 0, 0})
	kb := k.Bytes()
	smBody, _ := json.Marshal(map[string]string{"scalar": hex.EncodeToString(kb[:])})

	var seed [schnorrq.SeedSize]byte
	for i := range seed {
		seed[i] = byte(i*31 + 5)
	}
	key, err := schnorrq.NewKeyFromSeed(seed)
	if err != nil {
		return nil, err
	}
	msg := []byte("fourq-loadgen canonical message")
	sig := key.Sign(msg)
	pub := key.Public.Bytes()
	signBody, _ := json.Marshal(map[string]string{
		"seed": hex.EncodeToString(seed[:]),
		"msg":  hex.EncodeToString(msg),
	})
	item := map[string]string{
		"pub": hex.EncodeToString(pub[:]),
		"msg": hex.EncodeToString(msg),
		"sig": hex.EncodeToString(sig[:]),
	}
	verifyBody, _ := json.Marshal(item)
	items := make([]map[string]string, batchSize)
	for i := range items {
		items[i] = item
	}
	batchBody, _ := json.Marshal(map[string]any{"items": items})

	return []opKind{
		{"scalarmult", "/v1/scalarmult", smBody, 1},
		{"sign", "/v1/sign", signBody, 1},
		{"verify", "/v1/verify", verifyBody, 2},
		{"batch", "/v1/batch/verify", batchBody, 2*batchSize + 1},
	}, nil
}

// parseMix expands "scalarmult=4,sign=2" into a weighted round-robin
// schedule over the known op kinds.
func parseMix(mix string, ops []opKind) ([]opKind, error) {
	byName := map[string]opKind{}
	for _, o := range ops {
		byName[o.name] = o
	}
	var sched []opKind
	for _, ent := range strings.Split(mix, ",") {
		name, wStr, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok {
			return nil, fmt.Errorf("mix: %q is not name=weight", ent)
		}
		o, found := byName[name]
		if !found {
			return nil, fmt.Errorf("mix: unknown operation %q", name)
		}
		w, err := strconv.Atoi(wStr)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix: bad weight in %q", ent)
		}
		for i := 0; i < w; i++ {
			sched = append(sched, o)
		}
	}
	if len(sched) == 0 {
		return nil, fmt.Errorf("mix: empty schedule")
	}
	return sched, nil
}

// outcome tallies one request's fate.
type outcome struct {
	status  int
	latency time.Duration
	smCost  int
	err     error
}

// percentiles reads p50/p95/p99 off sorted latencies.
func percentiles(sorted []time.Duration) benchreport.Percentiles {
	return benchreport.Percentiles{
		P50: percentileMS(sorted, 0.50),
		P95: percentileMS(sorted, 0.95),
		P99: percentileMS(sorted, 0.99),
	}
}

func percentileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

func waitHealthy(client *http.Client, target string, deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for {
		resp, err := client.Get(target + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(end) {
			if err != nil {
				return fmt.Errorf("server not ready after %v: %v", deadline, err)
			}
			return fmt.Errorf("server not ready after %v", deadline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func run(target string, rps float64, duration time.Duration, mix string, batchSize int, tenant string, timeout, waitReady time.Duration, jsonPath, metricsOut, expName string) error {
	if rps <= 0 {
		return fmt.Errorf("rps must be positive")
	}
	ops, err := buildOps(batchSize)
	if err != nil {
		return err
	}
	sched, err := parseMix(mix, ops)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: timeout}
	if waitReady > 0 {
		if err := waitHealthy(client, target, waitReady); err != nil {
			return err
		}
	}

	// Open loop: arrivals are paced by the wall clock alone, independent
	// of how many requests are still outstanding. The pacer launches
	// whatever the elapsed-time schedule owes on every tick (a plain
	// per-tick launch would silently under-offer at high rates, because
	// time.Ticker coalesces missed ticks). Under overload the arrival
	// rate holds and the server's shedding (503) is what keeps latency
	// bounded — which is exactly the behavior being measured.
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	stop := time.After(duration)
	start := time.Now()

	var wg sync.WaitGroup
	outcomes := make(chan outcome, 1<<20)
	launched := 0
loop:
	for {
		select {
		case <-stop:
			break loop
		case <-ticker.C:
			owed := int(time.Since(start).Seconds() * rps)
			for launched < owed {
				o := sched[launched%len(sched)]
				launched++
				wg.Add(1)
				go func(o opKind) {
					defer wg.Done()
					t0 := time.Now()
					req, err := http.NewRequest(http.MethodPost, target+o.path, bytes.NewReader(o.body))
					if err != nil {
						outcomes <- outcome{err: err}
						return
					}
					req.Header.Set("Content-Type", "application/json")
					if tenant != "" {
						req.Header.Set("X-Tenant", tenant)
					}
					resp, err := client.Do(req)
					if err != nil {
						outcomes <- outcome{err: err}
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					outcomes <- outcome{status: resp.StatusCode, latency: time.Since(t0), smCost: o.smCost}
				}(o)
			}
		}
	}
	wg.Wait()
	close(outcomes)

	stats := benchreport.Serve{
		Target:          target,
		OfferedRPS:      rps,
		DurationSeconds: duration.Seconds(),
		Mix:             mix,
		BatchSize:       batchSize,
		Requests:        map[string]int{"total": 0, "ok": 0, "shed": 0, "rate_limited": 0, "failed": 0},
	}
	var okLat []time.Duration
	smDone := 0
	for o := range outcomes {
		stats.Requests["total"]++
		switch {
		case o.err != nil:
			stats.Requests["failed"]++
		case o.status == http.StatusOK:
			stats.Requests["ok"]++
			okLat = append(okLat, o.latency)
			smDone += o.smCost
		case o.status == http.StatusServiceUnavailable:
			stats.Requests["shed"]++
		case o.status == http.StatusTooManyRequests:
			stats.Requests["rate_limited"]++
		default:
			stats.Requests["failed"]++
		}
	}
	if stats.Requests["total"] == 0 {
		return fmt.Errorf("no requests launched (duration too short for rate %v?)", rps)
	}
	sort.Slice(okLat, func(i, j int) bool { return okLat[i] < okLat[j] })
	stats.LatencyMS = percentiles(okLat)
	stats.ShedRate = float64(stats.Requests["shed"]) / float64(stats.Requests["total"])
	stats.GoodputRPS = float64(stats.Requests["ok"]) / duration.Seconds()
	stats.GoodputSMPerSec = float64(smDone) / duration.Seconds()

	fmt.Printf("fourq-loadgen: %d offered (%0.f rps over %v), %d ok, %d shed (%.1f%%), %d throttled, %d failed\n",
		stats.Requests["total"], rps, duration,
		stats.Requests["ok"], stats.Requests["shed"], 100*stats.ShedRate,
		stats.Requests["rate_limited"], stats.Requests["failed"])
	fmt.Printf("fourq-loadgen: latency p50=%.2fms p95=%.2fms p99=%.2fms, goodput %.1f req/s (%.1f SM/s)\n",
		stats.LatencyMS.P50, stats.LatencyMS.P95, stats.LatencyMS.P99,
		stats.GoodputRPS, stats.GoodputSMPerSec)

	if stats.Requests["ok"] == 0 {
		return fmt.Errorf("no request succeeded")
	}

	if jsonPath != "" {
		rep := benchreport.New()
		rep.Add(expName, stats)
		if err := rep.WriteFile(jsonPath); err != nil {
			return err
		}
		fmt.Printf("fourq-loadgen: wrote report to %s\n", jsonPath)
	}
	if metricsOut != "" {
		resp, err := client.Get(target + "/metrics")
		if err != nil {
			return fmt.Errorf("metrics scrape: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("metrics scrape: status %d", resp.StatusCode)
		}
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		_, err = io.Copy(f, resp.Body)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("metrics scrape: %w", err)
		}
		fmt.Printf("fourq-loadgen: scraped /metrics to %s\n", metricsOut)
	}
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/engine"
	"repro/internal/scalar"
	"repro/internal/sched"
	"repro/internal/serve"
)

// setupRepeats is how many fresh processes a run starts to time its
// set-up; setup_s is the median. A server starts in ~50 ms, so the
// serving workloads take more samples than flow, whose portfolio build
// takes seconds.
const (
	setupRepeats     = 9
	flowSetupRepeats = 3
)

// setupChild is the hidden -setup-child mode. "serve": in a fresh
// process, so the build is cold, start a server at fourq-serve's
// defaults, print its URL once it answers /healthz, serve until stdin
// closes, then print a childSummary line and exit. "flow": build the
// flow's processor and exit.
func setupChild(kind string) error {
	switch kind {
	case "serve":
		s, err := startServer(serveConfig())
		if err != nil {
			return err
		}
		fmt.Println(s.url)
		_, err = io.Copy(io.Discard, os.Stdin)
		counters := serveCounters(s)
		s.stop()
		if err != nil {
			return err
		}
		proc, err := engine.CachedProcessor(serveConfig())
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(childSummary{Counters: counters, PeakRSSMB: peakRSSMB(), Programs: programs(proc)})
	case "flow":
		_, err := core.New(flowConfig())
		return err
	}
	return fmt.Errorf("unknown set-up kind %q", kind)
}

// childSummary is what a serve child reports when it exits: the
// server's own counters, its resident-set high-water mark and the
// programs that served.
type childSummary struct {
	Counters  map[string]int64       `json:"counters"`
	PeakRSSMB float64                `json:"peak_rss_mb"`
	Programs  map[string]programInfo `json:"programs"`
}

// timeSetup starts n set-up children one after another and returns the
// median time from process start until the server was ready (serve) or
// the build had finished (flow), with every sample.
func timeSetup(n int, kind string) (float64, []float64, error) {
	var xs []float64
	for j := 0; j < n; j++ {
		d, err := spawnSetup(kind)
		if err != nil {
			return 0, nil, fmt.Errorf("set-up %d: %w", j, err)
		}
		xs = append(xs, d.Seconds())
	}
	return median(append([]float64(nil), xs...)), xs, nil
}

// spawnSetup runs one set-up child, waits for it to exit and returns
// how long it took to become ready.
func spawnSetup(kind string) (time.Duration, error) {
	if kind == "serve" {
		c, err := startServerChild()
		if err != nil {
			return 0, err
		}
		_, err = c.stop()
		return c.ready, err
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-child", kind)
	cmd.Stderr = os.Stderr
	t := time.Now()
	err = cmd.Run()
	return time.Since(t), err
}

// serverChild is a serve set-up child: a server at fourq-serve's
// defaults in its own process, so the generator's memory, goroutines
// and garbage collection stay out of the server's figures.
type serverChild struct {
	cmd    *exec.Cmd
	stdin  io.Closer
	stdout *bufio.Reader
	url    string
	ready  time.Duration // process start until /healthz answered
}

func startServerChild() (*serverChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-setup-child", "serve")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &serverChild{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout)}
	line, err := c.stdout.ReadString('\n')
	c.ready = time.Since(t)
	if err != nil {
		_, waitErr := c.stop()
		return nil, fmt.Errorf("server child never became ready: %v (%v)", err, waitErr)
	}
	c.url = strings.TrimSpace(line)
	return c, nil
}

// stop closes the child's stdin, which stops its server, reads its
// summary and waits for it to exit.
func (c *serverChild) stop() (childSummary, error) {
	c.stdin.Close()
	rest, readErr := io.ReadAll(c.stdout)
	if err := c.cmd.Wait(); err != nil {
		return childSummary{}, fmt.Errorf("server child: %w", err)
	}
	var sum childSummary
	if readErr != nil {
		return sum, readErr
	}
	if err := json.Unmarshal(rest, &sum); err != nil {
		return sum, fmt.Errorf("server child summary %q: %w", rest, err)
	}
	return sum, nil
}

// flowRounds is the pinned portfolio round budget of the flow build.
// The production default (sched.DefaultPortfolioKnobs, 6 rounds) takes
// ~26 s per build; one round keeps three cold builds inside a run.
const flowRounds = 1

func flowSched() sched.Options {
	k := sched.DefaultPortfolioKnobs()
	k.Rounds = flowRounds
	return sched.Options{Method: sched.MethodPortfolio, Seed: sched.DefaultPortfolioSeed, Portfolio: k}
}

// programInfo is the provenance of one microprogram that served.
type programInfo struct {
	Solver   string `json:"solver"`
	Makespan int    `json:"makespan_cycles"`
	Hash     string `json:"schedule_hash"`
}

func programs(p *core.Processor) map[string]programInfo {
	info := func(r *sched.Result) programInfo {
		return programInfo{Solver: r.Solver, Makespan: r.Makespan, Hash: fmt.Sprintf("%016x", r.ScheduleHash)}
	}
	out := map[string]programInfo{"variable_base": info(p.ScheduleResult())}
	if p.HasFixedBase() {
		out["fixed_base"] = info(p.FixedBaseScheduleResult())
	}
	return out
}

// serveSpec is an open-loop HTTP workload.
type serveSpec struct {
	name    string
	limitMs float64 // p99 latency limit that defines capacity
	refRate float64 // fixed reference rung for p50/p99
	ladder  ladder
	newLoad func(seed int64) (workload, error)
}

var (
	signSpec = serveSpec{
		name: "sign", limitMs: 25, refRate: 300,
		ladder:  ladder{base: 100, ratio: 1.05, top: 90},
		newLoad: func(seed int64) (workload, error) { return newSignLoad(seed), nil },
	}
	verifySpec = serveSpec{
		name: "verify", limitMs: 50, refRate: 150,
		ladder:  ladder{base: 50, ratio: 1.05, top: 90},
		newLoad: func(seed int64) (workload, error) { return newVerifyLoad(seed) },
	}
)

const (
	rungSeconds   = 1.0 // one ladder rung
	warmupSeconds = 0.3 // unmeasured load before the first timed rung
	refShare      = 0.2 // share of the run spent on the reference rung
	refWindows    = 4   // the reference rung runs as this many windows
)

// serveConfig is fourq-serve's default processor: list schedule with
// the fixed-base comb, which the server always adds.
func serveConfig() core.Config { return core.Config{FixedBase: true} }

// server is a serve.Server at fourq-serve's defaults on a loopback
// listener.
type server struct {
	srv  *serve.Server
	url  string
	done chan error
}

func startServer(cfg core.Config) (*server, error) {
	srv, err := serve.New(serve.Options{Shards: 2, Config: cfg, Engine: engine.Options{LaneWidth: 4}})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(l) }()
	c := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := c.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the server and waits for its accept loop to end.
func (s *server) stop() {
	s.srv.Close()
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("server: %v", err)
	}
}

func runServe(spec serveSpec, seed int64, seconds float64, traced bool) (outcome, error) {
	load, err := spec.newLoad(seed)
	if err != nil {
		return outcome{}, err
	}
	if traced {
		return traceServe(spec, load, seed, seconds)
	}
	setup, setupSamples, err := timeSetup(setupRepeats, "serve")
	if err != nil {
		return outcome{}, err
	}
	child, err := startServerChild()
	if err != nil {
		return outcome{}, err
	}
	g := newLoadgen(child.url, runtime.NumCPU(), load, nil)

	var rungs []rungResult
	run := func(rate, secs float64) rungResult {
		r := g.rung(rate, time.Duration(secs*float64(time.Second)), spec.limitMs)
		rungs = append(rungs, r)
		return r
	}
	run(spec.refRate, warmupSeconds)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	ref := rungResult{Rate: spec.refRate}
	for i := 0; i < refWindows; i++ {
		ref.pool(run(spec.refRate, seconds*refShare/refWindows))
	}
	ref.finishPool(spec.limitMs)

	// Every run of a rung is pooled with its earlier runs, and the
	// search judges a rung by them all (finishPool). The first search
	// starts cold from the reference rung; the rest of the run repeats
	// the search from the previous answer, so the rungs around capacity
	// are run several times and a stalled second cannot decide them.
	pools := map[int]*rungResult{}
	pooledPass := func(k int) bool {
		p := *pools[k]
		p.finishPool(spec.limitMs)
		return p.Pass
	}
	c, step := spec.ladder.rung(spec.refRate), 8
	for {
		best, complete := spec.ladder.search(c, step, func(k int) (bool, bool) {
			if time.Until(deadline).Seconds() < rungSeconds {
				return false, false
			}
			r := run(spec.ladder.rate(k), rungSeconds)
			if pools[k] == nil {
				pools[k] = &rungResult{Rate: r.Rate}
			}
			pools[k].pool(r)
			return pooledPass(k), true
		})
		if best >= 0 {
			c = best
		} else if complete {
			// Even rung 0 fails; its pooled p99 still places the
			// crossing below the ladder.
			c = 0
		}
		if !complete || best < 0 {
			break
		}
		step = 1
	}
	g.close()
	sum, err := child.stop()
	if err != nil {
		return outcome{}, err
	}
	if pools[c] == nil {
		return outcome{}, fmt.Errorf("%s: the run ended before any rung near capacity was measured", spec.name)
	}
	var pooled []rungResult
	pts := map[int]point{}
	okReqs, okSMs := 0, 0
	for k := max(c-2, 0); k <= min(c+2, spec.ladder.top); k++ {
		if pools[k] == nil {
			continue
		}
		p := *pools[k]
		p.finishPool(spec.limitMs)
		pooled = append(pooled, p)
		okReqs += p.OK
		okSMs += p.OKSMs
	}
	for k, p := range pools {
		q := *p
		q.finishPool(spec.limitMs)
		pts[k] = point{rate: q.Rate, p99: q.P99ms}
	}
	capacity := crossing(bracket(pts, c, spec.limitMs), spec.limitMs)

	deferredWrong := load.finish()
	out := outcome{metrics: metrics{}, report: map[string]any{}, wrong: deferredWrong, failed: deferredWrong, programs: sum.Programs}
	for _, r := range rungs {
		out.attempted += r.Sent
		out.failed += r.failed()
		out.wrong += r.Wrong
	}
	out.metrics.set("setup_s", "s", setup)
	out.metrics.set("capacity_rps", "1/s", capacity)
	out.metrics.set("goodput_sm_per_s", "SM/s", capacity*float64(okSMs)/float64(max(okReqs, 1)))
	out.metrics.set("p50_ms", "ms", ref.P50ms)
	out.metrics.set("peak_rss_mb", "MB", sum.PeakRSSMB)
	out.report["loop"] = fmt.Sprintf("open, %d connections, p99 limit %v ms, reference rung %v rps", g.conns, spec.limitMs, spec.refRate)
	out.report["setup_s_samples"] = setupSamples
	out.report["capacity_rungs"] = pooled
	out.report["p99_ms"] = finite(percentile(ref.lat, 0.99))
	out.report["reference"] = ref
	out.report["rungs"] = rungs
	out.report["serve_counters"] = sum.Counters
	return out, nil
}

// serveCounters reports the server's own counters (sheds, rejections,
// shard ejections, ...), so a noisy run can be told from a broken one.
func serveCounters(s *server) map[string]int64 {
	out := map[string]int64{}
	for name, v := range s.srv.Metrics().Snapshot().Counters {
		if strings.HasPrefix(name, "serve.") {
			out[name] = v
		}
	}
	return out
}

// flowWidth is the lane width of the flow's Executor batches (the
// engine's default serving width).
const flowWidth = 4

// flowWindow is the sub-interval over which sm_per_s is sampled; the
// run reports the median window.
const flowWindow = 0.5

func flowConfig() core.Config { return core.Config{Sched: flowSched()} }

func runFlow(seed int64, seconds float64, traced bool) (outcome, error) {
	pool := newSMPool(seed)
	if traced {
		return traceFlow(pool, seed, seconds)
	}
	setup, setupSamples, err := timeSetup(flowSetupRepeats, "flow")
	if err != nil {
		return outcome{}, err
	}
	proc, err := core.New(flowConfig())
	if err != nil {
		return outcome{}, err
	}
	ex := proc.NewExecutor()
	st := newFlowStream(seed, pool)
	// Warm-up: size the lane machine and fault in its memory.
	if _, err := st.batch(ex, nil); err != nil {
		return outcome{}, err
	}
	run, err := st.runFor(ex, seconds, nil)
	if err != nil {
		return outcome{}, err
	}
	smps := median(run.smps)
	out := outcome{metrics: metrics{}, report: map[string]any{}, attempted: st.sms, wrong: st.wrong, failed: st.wrong,
		programs: programs(proc), rounds: flowRounds}
	out.metrics.set("setup_s", "s", setup)
	out.metrics.set("peak_rss_mb", "MB", peakRSSMB())
	out.metrics.set("capacity_rps", "1/s", smps)
	out.metrics.set("goodput_sm_per_s", "SM/s", smps)
	out.metrics.set("p50_ms", "ms", median(run.p50))
	pm, err := proc.PowerModel()
	if err != nil {
		return outcome{}, err
	}
	out.report["loop"] = fmt.Sprintf("closed, one core.Executor, lane width %d, %d SMs", flowWidth, st.sms)
	out.report["setup_s_samples"] = setupSamples
	out.report["sm_per_s"] = smps
	out.report["windows"] = len(run.smps)
	out.report["batch_latency_samples"] = len(run.lat)
	out.report["p99_ms"] = finite(percentile(run.lat, 0.99))
	out.report["cycles_per_sm"] = proc.CyclesFunctional()
	out.report["latency_us_1v2"] = pm.Latency(1.2) * 1e6
	out.report["fmax_mhz_1v2"] = pm.Fmax(1.2) / 1e6
	out.report["latency_us_1v2_note"] = "calibrated to the paper's 10.1 us @ 1.2 V anchor, not validated"
	return out, nil
}

// flowStream pushes the seeded variable-base stream through an
// Executor in lane batches and checks every output.
type flowStream struct {
	seed   int64
	pool   []smCase
	next   int
	sms    int
	wrong  int
	ks     []scalar.Scalar
	bases  []curve.Affine
	outs   []curve.Affine
	errs   []error
	expect []*smCase
}

func newFlowStream(seed int64, pool []smCase) *flowStream {
	return &flowStream{seed: seed, pool: pool,
		ks: make([]scalar.Scalar, flowWidth), bases: make([]curve.Affine, flowWidth),
		outs: make([]curve.Affine, flowWidth), errs: make([]error, flowWidth), expect: make([]*smCase, flowWidth)}
}

// batch runs the next flowWidth stream elements as one lane batch and
// returns its duration.
func (f *flowStream) batch(ex *core.Executor, spans *recorder) (time.Duration, error) {
	for l := range f.ks {
		c := smStream(f.seed, f.pool, f.next)
		f.next++
		f.ks[l], f.bases[l], f.expect[l] = c.k, c.base, c
	}
	t := time.Now()
	_, err := ex.ScalarMultLanes(f.ks, f.bases, f.outs, f.errs)
	end := time.Now()
	spans.add("core.ScalarMultLanes", int64(f.next/flowWidth), -1, t, end)
	if err != nil {
		return 0, err
	}
	for l := range f.outs {
		f.sms++
		if f.errs[l] != nil || !sameAffine(f.outs[l], f.expect[l].want) {
			f.wrong++
			logf("flow: wrong output for stream element %d (err %v)", f.next-flowWidth+l, f.errs[l])
		}
	}
	return end.Sub(t), nil
}

// flowRun is one timed stretch of the flow stream, sampled in
// flowWindow windows.
type flowRun struct {
	lat  []float64 // every batch, ms
	smps []float64 // SM/s of each window
	p50  []float64 // median batch time of each window, ms
}

// runFor runs batches for the given time.
func (f *flowStream) runFor(ex *core.Executor, seconds float64, spans *recorder) (flowRun, error) {
	var r flowRun
	start := time.Now()
	wStart, wLat := start, []float64(nil)
	for time.Since(start).Seconds() < seconds {
		d, err := f.batch(ex, spans)
		if err != nil {
			return r, err
		}
		ms := float64(d) / 1e6
		r.lat = append(r.lat, ms)
		wLat = append(wLat, ms)
		if el := time.Since(wStart).Seconds(); el >= flowWindow {
			r.smps = append(r.smps, float64(len(wLat)*flowWidth)/el)
			r.p50 = append(r.p50, median(wLat))
			wStart, wLat = time.Now(), nil
		}
	}
	return r, nil
}

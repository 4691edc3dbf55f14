package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/engine"
	"repro/internal/fp2"
	"repro/internal/jobshop"
	"repro/internal/rtl"
	"repro/internal/scalar"
	"repro/internal/sched"
	"repro/internal/schnorrq"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The traced run replays a sample of the workload's inputs layer by
// layer, from serve down to fp2, recording a span around every call the
// benchmark makes into a layer's public API. A layer's self time is its
// span minus its child spans where the benchmark can see the children
// (the engine calls schnorrq makes go through tracedMulter); where it
// cannot (inside the serve handler), the same request is replayed one
// layer down and the difference of the two spans is the self time.

// layerSample is how many requests, SMs or lane batches the replay
// pushes through each layer.
const layerSample = 64

// tracer accumulates one traced run.
type tracer struct {
	rec  *recorder
	m    metrics
	n    int // calls made
	bad  int // wrong answers
	proc *core.Processor
	// primaryFB selects the fixed-base comb as the workload's own program
	// (sign); otherwise it is the variable-base program.
	primaryFB bool
}

func (t *tracer) verify(err error) {
	t.n++
	if err != nil {
		t.bad++
		logf("wrong answer: %v", err)
	}
}

// verifyAnswer checks one answer at once, deferred checks included.
func (t *tracer) verifyAnswer(load workload, i int, body []byte) {
	t.verify(load.check(i, body))
	if wrong := load.finish(); wrong > 0 {
		t.verify(fmt.Errorf("request %d: answer differs from the software oracle", i))
	}
}

func medianUS(ns []float64) float64 { return median(ns) / 1e3 }

// buildLayers replays the workload's program build: trace recording,
// job-shop scheduling and compilation, and checks that the replay
// reproduces the schedule the serving processor runs.
func (t *tracer) buildLayers(opts sched.Options) error {
	ts, g := core.DefaultTraceScalar(), curve.GeneratorAffine()
	served := t.proc.ScheduleResult()
	var tr *trace.ScalarMultTrace
	var err error
	t.rec.do("trace.build", 0, -1, func() {
		if t.primaryFB {
			tr, err = trace.BuildFixedBaseScalarMult(ts, g)
		} else {
			tr, err = trace.BuildScalarMult(ts, g)
		}
	})
	if err != nil {
		return err
	}
	if t.primaryFB {
		served = t.proc.FixedBaseScheduleResult()
	}
	var res *sched.Result
	t.rec.do("sched.solve", 0, -1, func() { res, err = sched.Schedule(tr.Graph, sched.DefaultResources(), opts) })
	if err != nil {
		return err
	}
	if res.ScheduleHash != served.ScheduleHash {
		return fmt.Errorf("replayed schedule %016x differs from the served one %016x", res.ScheduleHash, served.ScheduleHash)
	}
	inst, err := sched.BuildInstance(tr.Graph, sched.DefaultResources())
	if err != nil {
		return err
	}
	lb, err := jobshop.LowerBound(inst)
	if err != nil {
		return err
	}
	var cp *rtl.CompiledProgram
	for i := 0; i < 3; i++ {
		t.rec.do("rtl.Compile", int64(i), -1, func() { cp, err = rtl.Compile(res.Program) })
		if err != nil {
			return err
		}
	}
	st := cp.Stats()
	t.m.set("trace.build_s", "s", median(t.rec.durNS("trace.build"))/1e9)
	t.m.set("sched.solve_s", "s", median(t.rec.durNS("sched.solve"))/1e9)
	t.m.set("sched.makespan_cycles", "cycles", float64(res.Makespan))
	t.m.set("sched.bound_gap", "ratio", float64(res.Makespan)/float64(lb))
	t.m.set("rtl.compile_s", "s", median(t.rec.durNS("rtl.Compile"))/1e9)
	t.m.set("rtl.cycles_per_sm", "cycles", float64(st.Cycles))
	t.m.set("rtl.mul_utilization", "ratio", st.MulUtilization)
	t.m.set("rtl.stall_cycles", "cycles", float64(st.StallCycles))
	return nil
}

// kernelCase is one SM of the kernel-layer sample with both oracles.
type kernelCase struct {
	smCase
	wantG curve.Affine // [k]G
}

func kernelCases(pool []smCase) []kernelCase {
	out := make([]kernelCase, layerSample)
	for i := range out {
		out[i].smCase = pool[i%len(pool)]
		out[i].wantG = curve.ScalarMult(out[i].k, curve.Generator()).Affine()
	}
	return out
}

// kernelLayers times fp2 products, LaneMachine runs of both programs,
// and the Executor's lane and single-SM paths on the sample. Each
// layer runs once unrecorded first so pools and lane machines are
// sized before timing.
func (t *tracer) kernelLayers(cases []kernelCase) error {
	// fp2: Algorithm 2 products on the sample's coordinates, as rows
	// (the lane machine's kernel) and one at a time (Machine's).
	a := make([]fp2.Element, 0, 2*len(cases))
	b := make([]fp2.Element, 0, 2*len(cases))
	for _, c := range cases {
		a = append(a, c.base.X, c.want.X)
		b = append(b, c.base.Y, c.want.Y)
	}
	dst := make([]fp2.Element, len(a))
	rows := make([]fp2.Element, len(a))
	const reps = 200
	for pass := 0; pass < 6; pass++ {
		rec := t.rec
		if pass == 0 {
			rec = nil
		}
		rec.do("fp2.MulAlg2Rows", int64(pass), -1, func() {
			for r := 0; r < reps; r++ {
				fp2.MulAlg2Rows(rows, a, b)
			}
		})
		rec.do("fp2.MulAlg2", int64(pass), -1, func() {
			for r := 0; r < reps; r++ {
				for i := range a {
					dst[i] = fp2.MulAlg2(a[i], b[i])
				}
			}
		})
	}
	for i := range a {
		want := fp2.Mul(a[i], b[i])
		t.verify(eqErr(want.Equal(dst[i]) && want.Equal(rows[i]), "fp2 product %d", i))
	}
	products := float64(reps * len(a))
	t.m.set("fp2.mul_rows_ns", "ns", median(t.rec.durNS("fp2.MulAlg2Rows"))/products)
	t.m.set("fp2.mul_alg2_ns", "ns", median(t.rec.durNS("fp2.MulAlg2"))/products)

	// rtl: the lane machine at the engine's width, per program.
	cpVB, cpFB := t.proc.Compiled(), t.proc.FixedBaseCompiled()
	inX, okX := cpVB.InputReg("P.x")
	inY, okY := cpVB.InputReg("P.y")
	outVB, outFB, err := outRegs(cpVB, cpFB)
	if !okX || !okY || err != nil {
		return fmt.Errorf("resolve program registers: %v", err)
	}
	lmVB, lmFB := cpVB.NewLaneMachine(flowWidth), cpFB.NewLaneMachine(flowWidth)
	ins := make([]rtl.RunInput, flowWidth)
	errs := make([]error, flowWidth)
	ex := t.proc.NewExecutor()
	ks := make([]scalar.Scalar, flowWidth)
	bases := make([]curve.Affine, flowWidth)
	outs := make([]curve.Affine, flowWidth)
	var cyclesVB, cyclesFB float64
	for pass := 0; pass < 2; pass++ {
		rec := t.rec
		if pass == 0 {
			rec = nil
		}
		for i := 0; i+flowWidth <= len(cases); i += flowWidth {
			batch := cases[i : i+flowWidth]
			req := int64(i / flowWidth)
			for l, c := range batch {
				dec := scalar.Decompose(c.k)
				ins[l] = rtl.RunInput{Bound: []rtl.Binding{{Reg: inX, Val: c.base.X}, {Reg: inY, Val: c.base.Y}},
					Rec: scalar.Recode(dec), Corrected: dec.Corrected}
				ks[l], bases[l] = c.k, c.base
			}
			var st rtl.Stats
			rec.do("rtl.LaneMachine.RunLanes.vb", req, -1, func() { st, err = lmVB.RunLanes(ins, errs) })
			if err != nil {
				return err
			}
			cyclesVB = float64(st.Cycles)
			for l, c := range batch {
				got := curve.Affine{X: lmVB.Reg(l, outVB[0]), Y: lmVB.Reg(l, outVB[1])}
				t.verify(eqErr(errs[l] == nil && sameAffine(got, c.want), "rtl vb lane %d", i+l))
			}
			for l, c := range batch {
				ins[l] = rtl.RunInput{}
				ins[l].Rec, ins[l].Corrected = scalar.RecodeFixedBase(c.k)
			}
			rec.do("rtl.LaneMachine.RunLanes.fb", req, -1, func() { st, err = lmFB.RunLanes(ins, errs) })
			if err != nil {
				return err
			}
			cyclesFB = float64(st.Cycles)
			for l, c := range batch {
				got := curve.Affine{X: lmFB.Reg(l, outFB[0]), Y: lmFB.Reg(l, outFB[1])}
				t.verify(eqErr(errs[l] == nil && sameAffine(got, c.wantG), "rtl fb lane %d", i+l))
			}

			rec.do("core.ScalarMultLanes", req, -1, func() { _, err = ex.ScalarMultLanes(ks, bases, outs, errs) })
			if err != nil {
				return err
			}
			for l, c := range batch {
				t.verify(eqErr(errs[l] == nil && sameAffine(outs[l], c.want), "core vb lane %d", i+l))
			}
			rec.do("core.ScalarMultFixedBaseLanes", req, -1, func() { _, err = ex.ScalarMultFixedBaseLanes(ks, outs, errs) })
			if err != nil {
				return err
			}
			for l, c := range batch {
				t.verify(eqErr(errs[l] == nil && sameAffine(outs[l], c.wantG), "core fb lane %d", i+l))
			}
			for l, c := range batch {
				var got curve.Affine
				rec.do("core.ScalarMultPoint", req*flowWidth+int64(l), -1, func() { got, _, err = ex.ScalarMultPoint(c.k, c.base) })
				t.verify(eqErr(err == nil && sameAffine(got, c.want), "core single %d", i+l))
			}
		}
	}
	t.m.set("rtl.ns_per_cycle.vb", "ns", median(t.rec.durNS("rtl.LaneMachine.RunLanes.vb"))/cyclesVB)
	t.m.set("rtl.ns_per_cycle.fb", "ns", median(t.rec.durNS("rtl.LaneMachine.RunLanes.fb"))/cyclesFB)
	t.m.set("core.lanes_us_per_sm.vb", "us", medianUS(t.rec.durNS("core.ScalarMultLanes"))/flowWidth)
	t.m.set("core.lanes_us_per_sm.fb", "us", medianUS(t.rec.durNS("core.ScalarMultFixedBaseLanes"))/flowWidth)
	t.m.set("core.single_us_per_sm", "us", medianUS(t.rec.durNS("core.ScalarMultPoint")))
	return nil
}

func outRegs(cps ...*rtl.CompiledProgram) (vb, fb [2]uint16, err error) {
	var regs [2][2]uint16
	for i, cp := range cps {
		x, okX := cp.OutputReg("x")
		y, okY := cp.OutputReg("y")
		if !okX || !okY {
			return vb, fb, fmt.Errorf("program %d has no x/y outputs", i)
		}
		regs[i] = [2]uint16{x, y}
	}
	return regs[0], regs[1], nil
}

func eqErr(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("mismatch with the software oracle: "+format, args...)
}

// tracedMulter is the ScalarMulter schnorrq calls during the replay: it
// forwards to the engine inside an engine span parented to the
// schnorrq call, so schnorrq's self time excludes the engine's.
type tracedMulter struct {
	eng    *engine.Engine
	rec    *recorder
	req    int64
	parent int
}

func (m tracedMulter) ScalarMultAffine(ctx context.Context, k scalar.Scalar, base curve.Affine) (curve.Affine, error) {
	i := m.rec.begin("engine.ScalarMultAffine", m.req, m.parent)
	defer m.rec.end(i)
	return m.eng.ScalarMultAffine(ctx, k, base)
}

func (m tracedMulter) ScalarMultFixedBase(ctx context.Context, k scalar.Scalar) (curve.Affine, error) {
	i := m.rec.begin("engine.ScalarMultFixedBase", m.req, m.parent)
	defer m.rec.end(i)
	return m.eng.ScalarMultFixedBase(ctx, k)
}

// protocolLayers signs and verifies the workload's seeded keys and
// messages through schnorrq on an engine configured like a serving
// shard.
func (t *tracer) protocolLayers(eng *engine.Engine, seed int64) error {
	ctx := context.Background()
	keys := newSignLoad(seed)
	for i := -1; i < layerSample; i++ {
		rec := t.rec
		if i < 0 {
			rec = nil
		}
		req := int64(i)
		ks, msg := keys.input(i + 1)
		var key *schnorrq.PrivateKey
		var err error
		rec.do("schnorrq.NewKeyFromSeed", req, -1, func() { key, err = schnorrq.NewKeyFromSeed(ks) })
		if err != nil {
			return err
		}
		si := rec.begin("schnorrq.SignWith", req, -1)
		sig, err := key.SignWith(ctx, tracedMulter{eng, rec, req, si}, msg)
		rec.end(si)
		if err != nil {
			return err
		}
		t.verify(eqErr(sig == key.Sign(msg), "engine signature %d", i))
		vi := rec.begin("schnorrq.VerifyWith", req, -1)
		ok, err := schnorrq.VerifyWith(ctx, tracedMulter{eng, rec, req, vi}, &key.Public, msg, sig[:])
		rec.end(vi)
		if err != nil {
			return err
		}
		t.verify(eqErr(ok, "engine verify of signature %d", i))
	}
	engSpan := "engine.ScalarMultAffine"
	if t.primaryFB {
		engSpan = "engine.ScalarMultFixedBase"
	}
	t.m.set("engine.submit_us", "us", medianUS(t.rec.durNS(engSpan)))
	t.m.set("schnorrq.keygen_us", "us", medianUS(t.rec.durNS("schnorrq.NewKeyFromSeed")))
	t.m.set("schnorrq.sign_self_us", "us", medianUS(t.rec.selfNS("schnorrq.SignWith")))
	t.m.set("schnorrq.verify_self_us", "us", medianUS(t.rec.selfNS("schnorrq.VerifyWith")))
	return nil
}

// servingLayers sends the workload's own requests over loopback, then
// through the handler in-process, then as the direct call the handler
// makes, and differences the three.
func (t *tracer) servingLayers(s *server, eng *engine.Engine, load workload) error {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	h := s.srv.Handler()
	const base = 1 << 24 // request indices apart from the load phase's
	for i := -1; i < layerSample; i++ {
		rec := t.rec
		if i < 0 {
			rec = nil
		}
		idx := base + i + 1
		req := load.request(idx)
		var status int
		var body []byte
		var err error
		rec.do("serve.loopback", int64(i), -1, func() {
			var resp *http.Response
			if resp, err = client.Post(s.url+req.path, "application/json", bytes.NewReader(req.body)); err == nil {
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				status = resp.StatusCode
			}
		})
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("loopback %s: status %d: %v", req.path, status, err)
		}
		t.verifyAnswer(load, idx, body)
		rw := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
		rec.do("serve.Handler.ServeHTTP", int64(i), -1, func() { h.ServeHTTP(rw, hr) })
		if rw.Code != http.StatusOK {
			return fmt.Errorf("handler %s: status %d: %s", req.path, rw.Code, rw.Body.String())
		}
		t.verifyAnswer(load, idx, rw.Body.Bytes())
		call, check := load.direct(idx, eng)
		rec.do("serve.direct", int64(i), -1, func() { err = call(context.Background()) })
		if err != nil {
			return err
		}
		t.verify(check())
	}
	loop, handler, direct := t.rec.byReq("serve.loopback"), t.rec.byReq("serve.Handler.ServeHTTP"), t.rec.byReq("serve.direct")
	var self, wire []float64
	for r, d := range handler {
		self = append(self, d-direct[r])
		wire = append(wire, loop[r]-d)
	}
	t.m.set("serve.handler_self_us", "us", medianUS(self))
	t.m.set("serve.loopback_us", "us", medianUS(wire))
	return nil
}

// loadLayers offers the workload's reference rate to the server twice,
// untraced and with a span per request, and reads the engine and serve
// counters the load moved from the server's registry.
func (t *tracer) loadLayers(s *server, load workload, rate, limitMs, secs float64) (untraced, traced rungResult) {
	before := s.srv.Metrics().Snapshot()
	g := newLoadgen(s.url, runtime.NumCPU(), load, nil)
	defer g.close()
	d := time.Duration(secs * float64(time.Second))
	g.rung(rate, time.Duration(warmupSeconds*float64(time.Second)), limitMs)
	untraced = g.rung(rate, d, limitMs)
	g.spans = t.rec
	traced = g.rung(rate, d, limitMs)
	after := s.srv.Metrics().Snapshot()
	delta := func(suffix string) float64 {
		var v int64
		for name, x := range after.Counters {
			if strings.HasPrefix(name, "engine.shard") && strings.HasSuffix(name, "."+suffix) {
				v += x - before.Counters[name]
			}
		}
		return float64(v)
	}
	hist := func(suffix string) (sum float64, count int64) {
		for name, h := range after.Histograms {
			if strings.HasPrefix(name, "engine.shard") && strings.HasSuffix(name, "."+suffix) {
				sum += h.Sum - before.Histograms[name].Sum
				count += h.Count - before.Histograms[name].Count
			}
		}
		return sum, count
	}
	// Every lane dispatch, a lone job included, observes one lane-fill
	// wait; lane_runs counts only the multi-lane ones.
	_, dispatches := hist("lane_fill_seconds")
	qwSum, qwCount := hist("queue_wait_seconds")
	slots := float64(max(dispatches, 1))
	t.m.set("engine.queue_wait_us", "us", qwSum/float64(max(qwCount, 1))*1e6)
	t.m.set("engine.lane_fill", "ratio", delta("completed")/(slots*flowWidth))
	t.m.set("engine.flush_hit_frac", "ratio", delta("flush_deadline_hits")/slots)
	t.m.set("engine.class_breaks", "count", delta("lane_class_breaks"))
	t.m.set("engine.fallback_frac", "ratio", delta("fallback_completed")/max(delta("completed"), 1))
	shed := float64(after.Counters["serve.shed"] - before.Counters["serve.shed"])
	reqs := float64(after.Counters["serve.requests"] - before.Counters["serve.requests"])
	t.m.set("serve.shed_frac", "ratio", shed/max(reqs, 1))
	t.m.set("loadgen.lag_p99_ms", "ms", untraced.LagP99ms)
	for _, r := range []rungResult{untraced, traced} {
		t.n += r.Sent
		t.bad += r.Wrong
	}
	return untraced, traced
}

// finishTrace writes the spans and assembles the outcome.
func (t *tracer) finish(name string, seed int64, rounds int, load workload, report map[string]any) (outcome, error) {
	t.bad += load.finish()
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := t.rec.write(path); err != nil {
		return outcome{}, fmt.Errorf("write spans: %w", err)
	}
	report["span_file"] = path
	report["spans"] = len(t.rec.spans)
	return outcome{attempted: t.n, failed: t.bad, wrong: t.bad, metrics: t.m, report: report, programs: programs(t.proc), rounds: rounds}, nil
}

func newTracer(proc *core.Processor, primaryFB bool) *tracer {
	return &tracer{rec: newRecorder(), m: metrics{}, proc: proc, primaryFB: primaryFB}
}

// shardQueueDepth is the queue depth serve.New gives each shard at
// fourq-serve's defaults: room for a 64-item batch (129 SMs) under the
// 0.8 shed mark.
const shardQueueDepth = 162

// shardEngine is an engine configured like one fourq-serve shard.
func shardEngine(proc *core.Processor) *engine.Engine {
	return engine.NewWithProcessor(proc, engine.Options{LaneWidth: 4, QueueDepth: shardQueueDepth, Registry: telemetry.NewRegistry()})
}

func traceServe(spec serveSpec, load workload, seed int64, seconds float64) (outcome, error) {
	s, err := startServer(serveConfig())
	if err != nil {
		return outcome{}, err
	}
	defer s.stop()
	proc, err := engine.CachedProcessor(serveConfig())
	if err != nil {
		return outcome{}, err
	}
	t := newTracer(proc, spec.name == "sign")
	eng := shardEngine(proc)
	defer eng.Close()
	if err := t.buildLayers(sched.Options{}); err != nil {
		return outcome{}, err
	}
	if err := t.kernelLayers(kernelCases(newSMPoolN(seed, layerSample))); err != nil {
		return outcome{}, err
	}
	if err := t.protocolLayers(eng, seed); err != nil {
		return outcome{}, err
	}
	if err := t.servingLayers(s, eng, load); err != nil {
		return outcome{}, err
	}
	untraced, traced := t.loadLayers(s, load, spec.refRate, spec.limitMs, seconds*refShare)
	t.m.set("bench.tracing_overhead_frac", "ratio", traced.P50ms/untraced.P50ms-1)
	return t.finish(spec.name, seed, 0, load, map[string]any{
		"tracing_overhead": map[string]any{"untraced_p50_ms": untraced.P50ms, "traced_p50_ms": traced.P50ms},
	})
}

// flowRefRate is the /v1/scalarmult rate at which the traced flow run
// reads the serving layers' counters.
const flowRefRate = 200

func traceFlow(pool []smCase, seed int64, seconds float64) (outcome, error) {
	// The server adds the fixed-base comb to the flow's configuration,
	// so the kernel layers can time both programs from one processor.
	cfg := flowConfig()
	s, err := startServer(cfg)
	if err != nil {
		return outcome{}, err
	}
	defer s.stop()
	cfg.FixedBase = true
	proc, err := engine.CachedProcessor(cfg)
	if err != nil {
		return outcome{}, err
	}
	t := newTracer(proc, false)
	eng := shardEngine(proc)
	defer eng.Close()
	if err := t.buildLayers(flowSched()); err != nil {
		return outcome{}, err
	}
	if err := t.kernelLayers(kernelCases(pool)); err != nil {
		return outcome{}, err
	}
	if err := t.protocolLayers(eng, seed); err != nil {
		return outcome{}, err
	}
	load := &scalarMultLoad{seed: seed, pool: pool}
	if err := t.servingLayers(s, eng, load); err != nil {
		return outcome{}, err
	}
	t.loadLayers(s, load, flowRefRate, signSpec.limitMs, seconds*refShare)

	// Tracing overhead on the flow's own loop: the same executor
	// stream untraced, then with a span per lane batch.
	ex := proc.NewExecutor()
	st := newFlowStream(seed, pool)
	if _, err := st.batch(ex, nil); err != nil {
		return outcome{}, err
	}
	half := seconds * refShare
	plain, err := st.runFor(ex, half, nil)
	if err != nil {
		return outcome{}, err
	}
	withSpans, err := st.runFor(ex, half, t.rec)
	if err != nil {
		return outcome{}, err
	}
	t.n += st.sms
	t.bad += st.wrong
	u, tr := median(plain.smps), median(withSpans.smps)
	t.m.set("bench.tracing_overhead_frac", "ratio", u/tr-1)
	return t.finish("flow", seed, flowRounds, load, map[string]any{
		"tracing_overhead": map[string]any{"untraced_sm_per_s": u, "traced_sm_per_s": tr},
	})
}

// Package serve is the networked front door over the engine: an
// HTTP/JSON service exposing scalar multiplication, SchnorrQ signing
// and verification, and batch verification, sharded across several
// engine instances with least-loaded dispatch so lane coalescing keeps
// filling under mixed tenants.
//
// Admission is layered, cheapest check first, and every refusal is a
// clean, attributable status code:
//
//  1. per-tenant token buckets (429 Too Many Requests) when tenant
//     enforcement is configured;
//  2. request validation (400/403/404/405) — a malformed request is
//     rejected before anything is dispatched, so it never occupies an
//     engine queue slot;
//  3. weighted admission control (503 Service Unavailable): each
//     request is charged its worst-case engine occupancy (a batch of n
//     signatures costs 2n+1 scalar multiplications) against the least
//     loaded shard, and the server sheds once that shard's outstanding
//     weight would cross ShedHighWater of its engine queue capacity.
//     Shedding therefore happens strictly before the engine's own
//     backpressure (ErrQueueFull) can trigger — the engine queue never
//     saturates through the front door.
//
// Graceful drain (SIGTERM in cmd/fourq-serve) is a three-step
// sequence: StartDrain stops admitting (503 "draining"), AwaitDrain
// waits — on the injectable Clock — until every admitted request has
// been answered (or the deadline passes), then closes the engine
// shards (flushing any in-flight lanes) and the listeners. An admitted
// request is answered exactly once; drain never drops one.
//
// The PR 6 observability surface is mounted on the same mux: /metrics
// (Prometheus text exposition), /debug/telemetry, /debug/flightrecorder,
// /debug/pprof/ and /debug/vars, all over the registry and flight
// recorder the shards report into. See docs/SERVE.md.
package serve

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// ErrDrainTimeout reports that AwaitDrain's deadline expired with
// requests still in flight. The listeners are closed anyway; the
// remaining requests keep their connections and are still answered.
var ErrDrainTimeout = errors.New("serve: drain deadline exceeded with requests in flight")

// ErrDraining is the admission error after StartDrain.
var ErrDraining = errors.New("serve: draining")

// Clock abstracts time for admission (token-bucket refill) and the
// drain deadline, so tests drive both deterministically.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// TenantLimit is one tenant's token bucket: sustained Rate requests
// per second with bursts up to Burst.
type TenantLimit struct {
	Rate  float64
	Burst int
}

// Options sizes a Server.
type Options struct {
	// Shards is the number of engine instances requests are dispatched
	// over. Defaults to 2.
	Shards int
	// Config selects the processor configuration; all shards share one
	// cached build (engine.CachedProcessor).
	Config core.Config
	// Engine is the per-shard engine template. Registry, FlightRecorder
	// and MetricsNamespace are overwritten per shard (shard i reports
	// under "engine.shard<i>"); everything else (Workers, QueueDepth,
	// LaneWidth, validation, breaker, Trace, ...) applies
	// to every shard as given.
	Engine engine.Options
	// Registry receives the server's and every shard's metrics (a fresh
	// registry is created when nil).
	Registry *telemetry.Registry
	// FlightRecorder is shared by the server and all shards (created
	// when nil), served at /debug/flightrecorder.
	FlightRecorder *telemetry.FlightRecorder
	// Tenants enables per-tenant admission when non-empty: requests
	// carry the tenant name in the X-Tenant header, unknown tenants are
	// refused with 403, and each tenant is throttled by its token
	// bucket (429). Empty disables tenant enforcement entirely.
	Tenants map[string]TenantLimit
	// MaxBatch bounds the item count of one batch-verify request.
	// Defaults to 64; larger batches are refused with 400.
	MaxBatch int
	// ShedHighWater is the fraction of a shard's engine queue capacity
	// at which admission sheds new work with 503. Defaults to 0.8; the
	// effective per-shard weight limit is always at least 1.
	ShedHighWater float64
	// Clock drives token-bucket refill, the drain deadline, the shard
	// supervisor's sampling, and the hedge timer; tests inject a fake.
	// Defaults to real time.
	Clock Clock

	// DefaultTenant, when non-nil, turns unknown X-Tenant values into
	// dynamically created token buckets with this limit instead of 403 —
	// open tenancy with per-client fairness. The dynamic bucket map is
	// bounded (TenantCacheSize, LRU + idle expiry), so high-cardinality
	// or spoofed tenant headers cannot grow memory without bound.
	DefaultTenant *TenantLimit
	// TenantCacheSize caps the dynamic tenant-bucket map when
	// DefaultTenant is set. Defaults to 1024; the least recently seen
	// tenant is evicted on overflow (its next request starts a fresh
	// bucket at full burst — the cost of eviction is leniency, never
	// lockout).
	TenantCacheSize int
	// TenantIdleTTL expires dynamic buckets idle this long (swept
	// lazily). Defaults to 5 minutes.
	TenantIdleTTL time.Duration

	// HealthThreshold is the score in [0,1] below which a shard is
	// considered unhealthy: dispatch skips it while any healthy shard
	// remains (falling back to degraded least-loaded routing — never a
	// 500 — when all are sick). Defaults to 0.25.
	HealthThreshold float64
	// SupervisorInterval is the health-sampling period of the shard
	// supervisor (driven by Clock). Defaults to 250ms; negative disables
	// supervision entirely (health scores then stay at 1.0).
	SupervisorInterval time.Duration
	// EjectAfter is how many consecutive unhealthy samples eject a
	// shard: the supervisor stops dispatch to it, drains its in-flight
	// weight, closes its engine, and rebuilds a replacement against the
	// shared cached processor. Defaults to 4; the last non-ejected shard
	// is never ejected.
	EjectAfter int
	// EjectDrainTimeout bounds how long an ejected shard may take to
	// drain its charged weight before the rebuild proceeds anyway (the
	// old engine is then closed asynchronously so wedged workers cannot
	// block the supervisor). Defaults to 2s.
	EjectDrainTimeout time.Duration
	// QueueAgeBound is the head-of-line queue age at which a shard
	// starts losing health score (the stalled-shard signal). Defaults to
	// 250ms.
	QueueAgeBound time.Duration

	// HedgeDelay, when positive, enables hedged dispatch: a request
	// still unanswered after this long is speculatively re-run on a
	// different healthy shard with spare capacity, first result wins.
	// Every operation is deterministic, so the hedge can never change an
	// answer — it only buys latency when the primary shard stalls.
	// Exactly one response is written per request regardless. 0 disables
	// hedging.
	HedgeDelay time.Duration
	// HedgeBudget caps concurrent hedges (spare-capacity-only hedging is
	// enforced independently at admission). Defaults to Shards.
	HedgeBudget int

	// ShardEngine, when non-nil, transforms shard i's engine options
	// just before the engine is built — at New and again on every
	// supervisor rebuild. It is the hook fault campaigns use to poison
	// or stall a single shard (arm an Injector or ExecHook on shard 0
	// only); see internal/chaos.
	ShardEngine func(shard int, opts engine.Options) engine.Options
}

// Server is the sharded signing/verification service. Create with New,
// mount via Handler (or Serve), stop with Drain. All methods are safe
// for concurrent use.
type Server struct {
	opts   Options
	proc   *core.Processor
	reg    *telemetry.Registry
	fr     *telemetry.FlightRecorder
	clock  Clock
	shards []*shard
	mux    *http.ServeMux
	hs     *http.Server

	mu            sync.Mutex
	inflight      int
	hedgeInflight int
	draining      bool
	idleCh        chan struct{} // created by StartDrain, closed when inflight hits 0
	listeners     []net.Listener
	closeOnce     sync.Once

	stopOnce sync.Once
	stopCh   chan struct{} // closed by shutdown; stops the supervisor
	superWG  sync.WaitGroup

	tenants map[string]*bucket
	dyn     *tenantCache // bounded dynamic buckets (Options.DefaultTenant)

	requests     *telemetry.Counter
	okC          *telemetry.Counter
	badRequest   *telemetry.Counter
	notFound     *telemetry.Counter
	unknownTen   *telemetry.Counter
	rateLimited  *telemetry.Counter
	shed         *telemetry.Counter
	drainRef     *telemetry.Counter
	engineFull   *telemetry.Counter
	backendErr   *telemetry.Counter
	canceledC    *telemetry.Counter
	degradedC    *telemetry.Counter
	shardEjected *telemetry.Counter
	shardRebuilt *telemetry.Counter
	hedgeLaunch  *telemetry.Counter
	hedgeWins    *telemetry.Counter
	hedgeLosses  *telemetry.Counter
	hedgeSkipped *telemetry.Counter
	inflightG    *telemetry.Gauge
	drainingG    *telemetry.Gauge
	hedgeG       *telemetry.Gauge
	latency      *telemetry.Histogram

	// holdGate, when non-nil, blocks every admitted request between
	// admission and dispatch until the channel closes — a test hook for
	// pinning drain semantics with requests deterministically in flight.
	// Guarded by mu; install via setHoldGate.
	holdGate chan struct{}
}

// setHoldGate installs the test-only dispatch gate.
func (s *Server) setHoldGate(ch chan struct{}) {
	s.mu.Lock()
	s.holdGate = ch
	s.mu.Unlock()
}

// shard is one engine instance plus the dispatcher's load accounting
// and the supervisor's health bookkeeping. The engine pointer is
// atomic because the supervisor swaps it on rebuild while request
// goroutines are dispatching.
type shard struct {
	id  int
	eng atomic.Pointer[engine.Engine]
	// weight is the admitted-but-unanswered engine occupancy charged to
	// this shard (guarded by Server.mu, alongside the admission
	// decision it feeds). It survives a rebuild: stragglers still
	// holding the old engine release against the same accounting.
	weight int
	limit  int // shed threshold: ShedHighWater * engine queue capacity

	// score is the latest health score in [0,1] (guarded by Server.mu;
	// written by the supervisor, read by admission). ejected marks a
	// shard the supervisor has pulled from rotation.
	score   float64
	ejected bool

	// Supervisor-goroutine-only state: consecutive unhealthy samples
	// and the previous health sample the failure rate is derived from.
	sick       int
	lastHealth engine.Health

	served   *telemetry.Counter
	weightG  *telemetry.Gauge
	healthG  *telemetry.Gauge
	ejectedG *telemetry.Gauge
}

// engine returns the shard's current engine instance.
func (sh *shard) engine() *engine.Engine { return sh.eng.Load() }

// New builds the shard set (sharing one cached processor) and the HTTP
// mux. The server is live immediately; callers mount Handler on a
// listener themselves or use Serve.
func New(opts Options) (*Server, error) {
	if opts.Shards <= 0 {
		opts.Shards = 2
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 64
	}
	if opts.ShedHighWater <= 0 || opts.ShedHighWater > 1 {
		opts.ShedHighWater = 0.8
	}
	if opts.Clock == nil {
		opts.Clock = realClock{}
	}
	if opts.TenantCacheSize <= 0 {
		opts.TenantCacheSize = 1024
	}
	if opts.TenantIdleTTL <= 0 {
		opts.TenantIdleTTL = 5 * time.Minute
	}
	if opts.HealthThreshold <= 0 || opts.HealthThreshold > 1 {
		opts.HealthThreshold = 0.25
	}
	if opts.SupervisorInterval == 0 {
		opts.SupervisorInterval = 250 * time.Millisecond
	}
	if opts.EjectAfter <= 0 {
		opts.EjectAfter = 4
	}
	if opts.EjectDrainTimeout <= 0 {
		opts.EjectDrainTimeout = 2 * time.Second
	}
	if opts.QueueAgeBound <= 0 {
		opts.QueueAgeBound = 250 * time.Millisecond
	}
	if opts.HedgeBudget <= 0 {
		opts.HedgeBudget = opts.Shards
	}
	if opts.Engine.QueueDepth <= 0 {
		// Mirror the engine's default (4 workers' worth of queue), but
		// floor it so a maximum-size batch (weight 2n+1) fits under the
		// shed high-water mark of an idle shard — otherwise full batches
		// would shed unconditionally.
		w := opts.Engine.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		qd := 4 * w
		if floor := int(float64(weightBatch(opts.MaxBatch))/opts.ShedHighWater) + 1; qd < floor {
			qd = floor
		}
		opts.Engine.QueueDepth = qd
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.FlightRecorder == nil {
		opts.FlightRecorder = telemetry.NewFlightRecorder(0)
	}
	// The front door hosts signing, so the shared processor always
	// carries the fixed-base comb program alongside the variable-base
	// one: SignWith routes each commitment multiplication [r]G through
	// engine.ScalarMultFixedBase (schnorrq.ScalarMulter), and
	// the engines keep lane batches homogeneous per program. Verify
	// traffic stays on the variable-base program.
	opts.Config.FixedBase = true
	// The processor build reports solver progress through the server's
	// registry (sched.best_makespan / sched.solver_improvements on
	// /metrics) unless the caller installed its own observer. A cache
	// hit in CachedProcessor skips the build and emits nothing — the
	// gauges then describe whichever build populated the cache.
	if opts.Config.Sched.Progress == nil {
		opts.Config.Sched.Progress = sched.MetricsProgress(opts.Registry, nil)
	}
	proc, err := engine.CachedProcessor(opts.Config)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	s := &Server{
		opts:         opts,
		proc:         proc,
		reg:          reg,
		fr:           opts.FlightRecorder,
		clock:        opts.Clock,
		stopCh:       make(chan struct{}),
		requests:     reg.Counter("serve.requests"),
		okC:          reg.Counter("serve.ok"),
		badRequest:   reg.Counter("serve.bad_request"),
		notFound:     reg.Counter("serve.not_found"),
		unknownTen:   reg.Counter("serve.unknown_tenant"),
		rateLimited:  reg.Counter("serve.rate_limited"),
		shed:         reg.Counter("serve.shed"),
		drainRef:     reg.Counter("serve.drain_refused"),
		engineFull:   reg.Counter("serve.engine_rejected"),
		backendErr:   reg.Counter("serve.backend_error"),
		canceledC:    reg.Counter("serve.canceled"),
		degradedC:    reg.Counter("serve.degraded_dispatch"),
		shardEjected: reg.Counter("serve.shard_ejected"),
		shardRebuilt: reg.Counter("serve.shard_rebuilt"),
		hedgeLaunch:  reg.Counter("serve.hedge_launched"),
		hedgeWins:    reg.Counter("serve.hedge_wins"),
		hedgeLosses:  reg.Counter("serve.hedge_losses"),
		hedgeSkipped: reg.Counter("serve.hedge_skipped"),
		inflightG:    reg.Gauge("serve.inflight"),
		drainingG:    reg.Gauge("serve.draining"),
		hedgeG:       reg.Gauge("serve.hedge_inflight"),
		latency: reg.Histogram("serve.latency_seconds",
			0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1),
	}
	s.drainingG.Set(0)
	s.fr.SetMeta("serve_shards", opts.Shards)
	s.fr.SetMeta("serve_shed_high_water", opts.ShedHighWater)
	for i := 0; i < opts.Shards; i++ {
		eng := s.buildShardEngine(i)
		limit := int(opts.ShedHighWater * float64(eng.QueueCap()))
		if limit < 1 {
			limit = 1
		}
		sh := &shard{
			id:       i,
			limit:    limit,
			score:    1.0,
			served:   reg.Counter(fmt.Sprintf("serve.shard_%d_requests", i)),
			weightG:  reg.Gauge(fmt.Sprintf("serve.shard_%d_weight", i)),
			healthG:  reg.Gauge(fmt.Sprintf("serve.shard_%d_health", i)),
			ejectedG: reg.Gauge(fmt.Sprintf("serve.shard_%d_ejected", i)),
		}
		sh.eng.Store(eng)
		sh.healthG.Set(1)
		s.shards = append(s.shards, sh)
	}
	if opts.DefaultTenant != nil {
		s.dyn = newTenantCache(*opts.DefaultTenant, opts.TenantCacheSize, opts.TenantIdleTTL, reg)
	}
	if len(opts.Tenants) > 0 {
		s.tenants = make(map[string]*bucket, len(opts.Tenants))
		for name, lim := range opts.Tenants {
			s.tenants[name] = newBucket(lim, s.clock.Now())
			// Registering the per-tenant counters up front keeps the
			// exposition stable from the first scrape (bounded set: the
			// tenant universe is configuration, not request data).
			reg.Counter("serve.tenant_" + name + "_requests")
			reg.Counter("serve.tenant_" + name + "_throttled")
		}
	}
	s.mux = telemetry.NewDebugMux(reg, s.fr)
	s.routes(s.mux)
	s.hs = &http.Server{Handler: s.mux}
	s.startSupervisor()
	return s, nil
}

// buildShardEngine constructs shard id's engine against the shared
// cached processor: the per-shard namespace/registry/flight wiring,
// then the ShardEngine hook (the chaos poisoning point). Used at New
// and again on every supervisor rebuild.
func (s *Server) buildShardEngine(id int) *engine.Engine {
	eopts := s.opts.Engine
	eopts.Registry = s.reg
	eopts.FlightRecorder = s.fr
	eopts.MetricsNamespace = fmt.Sprintf("engine.shard%d", id)
	if s.opts.ShardEngine != nil {
		eopts = s.opts.ShardEngine(id, eopts)
	}
	return engine.NewWithProcessor(s.proc, eopts)
}

// Handler returns the full mux: the /v1 API, /healthz, and the debug
// surface (/metrics, /debug/...).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the registry the server and its shards report into.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Flight returns the shared flight recorder.
func (s *Server) Flight() *telemetry.FlightRecorder { return s.fr }

// Shards returns the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// Inflight reports the number of admitted requests not yet answered.
func (s *Server) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Serve accepts connections on l until the listener is closed by Drain
// (or Close). It returns http.ErrServerClosed on a clean drain.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return http.ErrServerClosed
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	err := s.hs.Serve(l)
	if errors.Is(err, net.ErrClosed) {
		return http.ErrServerClosed
	}
	return err
}

// pickShardLocked chooses the dispatch target under s.mu: the least
// loaded healthy shard, falling back to the least loaded non-ejected
// shard when every shard is below the health threshold (degraded
// routing — a sick shard that still answers beats a 500). Ejected
// shards are never picked: their engine is being torn down.
func (s *Server) pickShardLocked() (best *shard, degraded bool) {
	for _, sh := range s.shards {
		if sh.ejected || sh.score < s.opts.HealthThreshold {
			continue
		}
		if best == nil || sh.weight < best.weight {
			best = sh
		}
	}
	if best != nil {
		return best, false
	}
	for _, sh := range s.shards {
		if sh.ejected {
			continue
		}
		if best == nil || sh.weight < best.weight {
			best = sh
		}
	}
	return best, best != nil
}

// admit charges weight to the chosen shard, or refuses: ErrDraining
// after StartDrain, engine.ErrQueueFull when the chosen shard is at its
// shed limit. The admission decision and the charge are one critical
// section, so concurrent requests cannot over-admit past the high-water
// mark.
func (s *Server) admit(weight int) (*shard, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	best, degraded := s.pickShardLocked()
	if best == nil || best.weight+weight > best.limit {
		return nil, engine.ErrQueueFull
	}
	if degraded {
		s.degradedC.Inc()
	}
	best.weight += weight
	best.weightG.Set(float64(best.weight))
	s.inflight++
	s.inflightG.Set(float64(s.inflight))
	return best, nil
}

// admitHedge charges a speculative duplicate of an in-flight request to
// a different healthy shard, spare capacity and hedge budget allowing.
// A hedge is never admitted degraded and never counts toward
// s.inflight (drain waits on primaries; the hedge is released when its
// runner returns). Returns nil when no hedge should launch.
func (s *Server) admitHedge(primary *shard, weight int) *shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.hedgeInflight >= s.opts.HedgeBudget {
		return nil
	}
	var best *shard
	for _, sh := range s.shards {
		if sh == primary || sh.ejected || sh.score < s.opts.HealthThreshold {
			continue
		}
		if sh.weight+weight > sh.limit {
			continue
		}
		if best == nil || sh.weight < best.weight {
			best = sh
		}
	}
	if best == nil {
		return nil
	}
	best.weight += weight
	best.weightG.Set(float64(best.weight))
	s.hedgeInflight++
	s.hedgeG.Set(float64(s.hedgeInflight))
	return best
}

// releaseHedge returns a hedge's charge.
func (s *Server) releaseHedge(sh *shard, weight int) {
	s.mu.Lock()
	sh.weight -= weight
	sh.weightG.Set(float64(sh.weight))
	s.hedgeInflight--
	s.hedgeG.Set(float64(s.hedgeInflight))
	s.mu.Unlock()
}

// release returns a request's charge. When the last in-flight request
// of a draining server leaves, the idle channel closes and AwaitDrain
// proceeds.
func (s *Server) release(sh *shard, weight int) {
	s.mu.Lock()
	sh.weight -= weight
	sh.weightG.Set(float64(sh.weight))
	s.inflight--
	s.inflightG.Set(float64(s.inflight))
	if s.draining && s.inflight == 0 && s.idleCh != nil {
		select {
		case <-s.idleCh:
		default:
			close(s.idleCh)
		}
	}
	s.mu.Unlock()
}

// StartDrain stops admission: every subsequent /v1 request is refused
// with 503 "draining". Idempotent; requests already admitted keep
// running.
func (s *Server) StartDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	s.drainingG.Set(1)
	s.idleCh = make(chan struct{})
	if s.inflight == 0 {
		close(s.idleCh)
	}
	s.fr.Record("drain_start", -1, 0, 0, "")
}

// AwaitDrain completes a drain started by StartDrain: it waits (on the
// injected Clock) until every admitted request has been answered or
// timeout passes, then closes the engine shards — flushing any
// in-flight lanes — and the listeners. On timeout it returns
// ErrDrainTimeout after closing the listeners; the straggling requests
// are still answered on their open connections (possibly degraded to
// 503 if they had not yet reached their shard's engine).
func (s *Server) AwaitDrain(timeout time.Duration) error {
	s.mu.Lock()
	ch := s.idleCh
	s.mu.Unlock()
	if ch == nil {
		return errors.New("serve: AwaitDrain without StartDrain")
	}
	var derr error
	select {
	case <-ch:
	case <-s.clock.After(timeout):
		derr = ErrDrainTimeout
	}
	s.shutdown()
	s.fr.Record("drain_done", -1, 0, 0, fmt.Sprintf("timeout=%v", derr != nil))
	return derr
}

// Drain is StartDrain followed by AwaitDrain.
func (s *Server) Drain(timeout time.Duration) error {
	s.StartDrain()
	return s.AwaitDrain(timeout)
}

// Close shuts the server down immediately: stop admitting, close the
// shards (still flushing anything already admitted to an engine) and
// the listeners. Prefer Drain for graceful shutdown; Close is the
// test-teardown and fatal-error path. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.drainingG.Set(1)
	s.mu.Unlock()
	s.shutdown()
}

// shutdown stops the supervisor, closes shards then listeners, exactly
// once. The supervisor is joined before the engines close so a rebuild
// cannot race engine teardown.
func (s *Server) shutdown() {
	s.closeOnce.Do(func() {
		s.stopOnce.Do(func() { close(s.stopCh) })
		s.superWG.Wait()
		for _, sh := range s.shards {
			sh.engine().Close()
		}
		s.mu.Lock()
		ls := s.listeners
		s.listeners = nil
		s.mu.Unlock()
		for _, l := range ls {
			l.Close()
		}
	})
}

// Package serve is the network serving layer over the vkg request API: an
// HTTP/JSON front end with admission control, per-request deadlines, load
// shedding, graceful drain, and multi-tenancy.
//
// The engine itself is a library built for in-process callers; this package
// is its process boundary for remote clients. Its contracts:
//
//   - Admission control. At most Config.MaxInFlight requests execute engine
//     work at once (a bounded semaphore sized off the worker pool), with a
//     short bounded wait queue in front (Config.QueueDepth requests for at
//     most Config.QueueWait each). Anything beyond that is shed immediately
//     with HTTP 429 + Retry-After and an error wrapping vkg.ErrOverloaded —
//     the server degrades by refusing work, never by queueing unboundedly.
//   - Deadlines. Every request runs under a context deadline: the server
//     default, or the client's timeout_ms clamped to Config.MaxTimeout. A
//     query that outruns its deadline answers 504 with an error wrapping
//     vkg.ErrDeadlineExceeded; the handler detaches but the admission slot
//     stays held until the engine call actually returns, so the in-flight
//     bound stays true.
//   - Graceful drain. Drain stops admitting (readiness goes 503 while
//     liveness stays 200), waits for in-flight work up to a budget, then
//     snapshots every tenant with a SnapshotPath through the engine's
//     atomic save path.
//   - Multi-tenancy. Several named graphs are served from one process;
//     requests route by tenant name, and /metrics renders the serving
//     counters plus every tenant's engine registry stamped tenant="name".
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vkgraph/internal/obs"
	"vkgraph/vkg"
)

// Backend answers queries for one tenant. *vkg.VKG satisfies it; tests
// substitute wrappers that inject latency or block.
type Backend interface {
	Do(ctx context.Context, q vkg.Query) (*vkg.Result, error)
	DoBatchWorkers(ctx context.Context, qs []vkg.Query, workers int) []vkg.Result
}

// Resolver resolves entity and relation names to ids for requests that
// address them by name. *vkg.Graph satisfies it.
type Resolver interface {
	EntityByName(name string) (vkg.EntityID, bool)
	RelationByName(name string) (vkg.RelationID, bool)
}

// Saver is the optional snapshot capability a Backend may offer; drain
// calls it for tenants with a SnapshotPath. *vkg.VKG satisfies it with the
// atomic temp-file-and-rename save path; when the backend has a write-ahead
// log armed on that path, the same call also flushes and rotates the log, so
// a drained tenant always leaves a mutually consistent snapshot+WAL pair.
type Saver interface {
	SaveFile(path string) error
}

// Tenant is one named graph served by the process.
type Tenant struct {
	// Backend answers the tenant's queries (required).
	Backend Backend
	// Resolver resolves name-addressed entities/relations; nil restricts
	// the tenant to id-addressed requests.
	Resolver Resolver
	// SnapshotPath, when set, is where Drain saves the tenant's engine
	// (Backend must implement Saver).
	SnapshotPath string
	// Registry is the tenant engine's metric registry; when set, /metrics
	// renders it stamped with the tenant label.
	Registry *obs.Registry
	// Traces, when set, receives the request-envelope trace records and is
	// merged into the /traces endpoints — the one record of slow and failed
	// requests. AddTenant arms its head sampling and slow-retention
	// thresholds from the server Config.
	Traces *obs.TraceStore
}

// NewTenant wires a Tenant from a built VKG: the VKG is the backend and
// saver, its graph resolves names, and its engine registry and trace store
// feed the ops endpoints. snapshotPath may be empty (no save on drain).
func NewTenant(v *vkg.VKG, snapshotPath string) *Tenant {
	return &Tenant{
		Backend:      v,
		Resolver:     v.Graph(),
		SnapshotPath: snapshotPath,
		Registry:     v.Engine().Registry(),
		Traces:       v.Engine().Traces(),
	}
}

// Config tunes the serving layer. The zero value is usable: every field
// falls back to the default documented on it.
type Config struct {
	// MaxInFlight bounds concurrently executing requests (default
	// 4×GOMAXPROCS — the engine's worker pool is GOMAXPROCS wide, and a
	// modest multiple keeps it fed while queries block on cracking locks).
	MaxInFlight int
	// QueueDepth bounds requests waiting for an in-flight slot (default
	// MaxInFlight). The queue absorbs bursts; beyond it requests shed.
	QueueDepth int
	// QueueWait bounds how long a queued request waits for a slot before
	// shedding (default 100ms). Short on purpose: a saturated server should
	// answer 429 in milliseconds, not accumulate latency.
	QueueWait time.Duration
	// DefaultTimeout is the per-request deadline when the client sends none
	// (default 5s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts (default 30s).
	MaxTimeout time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight requests
	// (default 10s).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB); oversized bodies
	// answer 413.
	MaxBodyBytes int64
	// MaxBatch bounds queries per batch request (default 1024).
	MaxBatch int
	// BatchWorkers is the worker-pool width of one batch request (default
	// GOMAXPROCS). The admission semaphore counts requests, not workers, so
	// engine parallelism is at most MaxInFlight×BatchWorkers.
	BatchWorkers int
	// RetryAfter is the Retry-After hint on shed responses (default 1s).
	RetryAfter time.Duration
	// TraceHeadRate is the head-sampling fraction of fast, successful
	// traces retained for /traces (default 1/64; negative disables head
	// sampling entirely). Errored, shed, timed-out, and slow requests are
	// always retained regardless — that tail is why the store exists.
	TraceHeadRate float64
	// TraceSlow is the latency above which a trace is always retained
	// (default obs.DefaultTraceSlow, 100ms). It is the one slow-query
	// threshold: slow requests are the /traces entries it kept, listed with
	// their status and latency_ms.
	TraceSlow time.Duration
	// AccessLog, when set, receives one structured JSON line per request
	// (trace id, tenant, status, admission outcome, latency). Writes are
	// serialized by the server; os.Stderr and files are fine as-is.
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.TraceHeadRate == 0 {
		c.TraceHeadRate = 1.0 / 64
	}
	if c.TraceHeadRate < 0 {
		c.TraceHeadRate = 0
	}
	if c.TraceSlow <= 0 {
		c.TraceSlow = obs.DefaultTraceSlow
	}
	return c
}

// metrics are the serving-layer counters, registered on the server's own
// obs registry (a per-instance registry, so registration may happen in
// NewServer). Per-tenant request counters are registered as tenants are
// added.
type metrics struct {
	reg       *obs.Registry
	admitted  *obs.Counter
	shedFull  *obs.Counter // queue full: no wait attempted
	shedWait  *obs.Counter // queue wait expired or caller gave up
	shedDrain *obs.Counter
	inflight  *obs.Gauge
	queued    *obs.Gauge
	detached  *obs.Counter
	deadline  *obs.Counter
	errors    *obs.Counter
	queueWait *obs.Histogram
	latency   *obs.Histogram
}

func newMetrics() *metrics {
	r := obs.NewRegistry()
	m := &metrics{reg: r}
	m.admitted = r.Counter("vkg_serve_admitted_total", "Requests admitted past admission control.")
	m.shedFull = r.Counter("vkg_serve_shed_total", "Requests shed by admission control.", obs.Label{Key: "reason", Value: "queue_full"})
	m.shedWait = r.Counter("vkg_serve_shed_total", "Requests shed by admission control.", obs.Label{Key: "reason", Value: "queue_wait"})
	m.shedDrain = r.Counter("vkg_serve_shed_total", "Requests shed by admission control.", obs.Label{Key: "reason", Value: "draining"})
	m.inflight = r.Gauge("vkg_serve_inflight", "Requests currently executing engine work.")
	m.queued = r.Gauge("vkg_serve_queued", "Requests waiting for an in-flight slot.")
	m.detached = r.Counter("vkg_serve_detached_total", "Handlers that answered 504 while the engine call was still running.")
	m.deadline = r.Counter("vkg_serve_deadline_exceeded_total", "Requests that exceeded their deadline.")
	m.errors = r.Counter("vkg_serve_errors_total", "Requests answered with a non-shed, non-deadline error.")
	m.queueWait = r.Histogram("vkg_serve_queue_wait_seconds", "Time spent waiting for admission.", nil)
	m.latency = r.Histogram("vkg_serve_request_seconds", "End-to-end request latency.", nil)
	return m
}

// Server is the serving layer: tenants, admission control, and the metrics
// behind the ops endpoints. Create with NewServer, register tenants with
// AddTenant, expose Handler (or Serve), and stop with Drain.
type Server struct {
	cfg Config
	adm *admission
	met *metrics

	mu       sync.Mutex
	tenants  map[string]*Tenant
	requests map[string]*obs.Counter // per-tenant request counters
	httpSrvs []*http.Server

	draining  chan struct{} // closed when drain starts
	drainOnce sync.Once

	// accessMu serializes writes to Config.AccessLog so concurrent handlers
	// emit whole lines.
	accessMu sync.Mutex

	// busy counts engine calls still running (admitted requests whose
	// backend call has not returned), including ones whose handler already
	// detached at its deadline. Drain waits on this count, not on handler
	// returns — a polled atomic rather than a WaitGroup because admissions
	// legitimately race with the start of the drain wait.
	busy atomic.Int64
}

// NewServer returns a Server with no tenants.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newMetrics()
	s := &Server{
		cfg:      cfg,
		met:      m,
		adm:      newAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.QueueWait, m),
		tenants:  make(map[string]*Tenant),
		requests: make(map[string]*obs.Counter),
		draining: make(chan struct{}),
	}
	return s
}

// AddTenant registers a named graph. Tenants must be added before the
// server starts handling traffic for them; re-registering a name or adding
// after drain is an error.
func (s *Server) AddTenant(name string, t *Tenant) error {
	if name == "" {
		return errors.New("serve: empty tenant name")
	}
	if t == nil || t.Backend == nil {
		return fmt.Errorf("serve: tenant %q has no backend", name)
	}
	if s.Draining() {
		return fmt.Errorf("serve: tenant %q added while draining", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[name]; dup {
		return fmt.Errorf("serve: duplicate tenant %q", name)
	}
	s.tenants[name] = t
	s.requests[name] = s.met.reg.Counter("vkg_serve_requests_total",
		"Requests received, by tenant.", obs.Label{Key: "tenant", Value: name})
	// Arm the tenant's trace retention from the server config: engines
	// default to head rate 0 (embedded use pays nothing), servers sample.
	t.Traces.SetHeadRate(s.cfg.TraceHeadRate)
	t.Traces.SetSlowThreshold(s.cfg.TraceSlow)
	return nil
}

// Tenants returns the registered tenant names, sorted.
func (s *Server) Tenants() []string {
	names, _ := s.sortedTenants()
	return names
}

// sortedTenants snapshots the registered tenants under one lock, in name
// order: tenants[i] is names[i], even when AddTenant races the caller.
func (s *Server) sortedTenants() (names []string, tenants []*Tenant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names = make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	tenants = make([]*Tenant, len(names))
	for i, name := range names {
		tenants[i] = s.tenants[name]
	}
	return names, tenants
}

// tenant resolves a request's tenant: an explicit name, or the sole tenant
// when only one is registered.
func (s *Server) tenant(name string) (*Tenant, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		if len(s.tenants) == 1 {
			for n, t := range s.tenants {
				return t, n, nil
			}
		}
		return nil, "", fmt.Errorf("serve: %d tenants registered, request names none", len(s.tenants))
	}
	t, ok := s.tenants[name]
	if !ok {
		return nil, "", fmt.Errorf("serve: unknown tenant %q", name)
	}
	return t, name, nil
}

// Registry returns the serving-layer metric registry (admission, shedding,
// latency). Tenant engine registries stay per-tenant; the /metrics page
// renders both.
func (s *Server) Registry() *obs.Registry { return s.met.reg }

// InFlight returns the number of requests currently executing engine work.
func (s *Server) InFlight() int64 { return s.met.inflight.Value() }

// Draining reports whether drain has started; the readiness endpoint
// answers 503 from that point on.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Serve accepts connections on ln with a hardened http.Server (header and
// read timeouts, header-size cap) until Drain. It returns http.ErrServerClosed
// after a drain-initiated shutdown, like http.Server.Serve.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	s.mu.Lock()
	s.httpSrvs = append(s.httpSrvs, srv)
	s.mu.Unlock()
	return srv.Serve(ln)
}

// Drain gracefully stops the server: new work is shed, readiness fails,
// listeners started by Serve shut down, in-flight engine calls get up to
// Config.DrainTimeout (bounded further by ctx) to finish, and then every
// tenant with a SnapshotPath is saved through the engine's atomic save
// path. Drain returns nil when all in-flight work finished and every
// snapshot succeeded; it is idempotent — concurrent and repeated calls
// share one drain.
func (s *Server) Drain(ctx context.Context) error {
	var err error
	s.drainOnce.Do(func() { err = s.drain(ctx) })
	return err
}

func (s *Server) drain(ctx context.Context) error {
	close(s.draining)

	budget, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()

	// Stop accepting new connections. Shutdown also waits for idle
	// connections, but the authoritative wait below is on engine work, not
	// on connection close.
	s.mu.Lock()
	srvs := append([]*http.Server(nil), s.httpSrvs...)
	s.mu.Unlock()
	var firstErr error
	for _, srv := range srvs {
		if e := srv.Shutdown(budget); e != nil && !errors.Is(e, context.DeadlineExceeded) && !errors.Is(e, context.Canceled) {
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: shutdown: %w", e)
			}
		}
	}

	// Wait for every admitted engine call — including ones whose handler
	// already detached with a 504 — up to the drain budget.
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
wait:
	for s.busy.Load() > 0 {
		select {
		case <-ticker.C:
		case <-budget.Done():
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: drain budget expired with %d requests in flight: %w",
					s.busy.Load(), budget.Err())
			}
			break wait
		}
	}

	// Snapshot tenants while the process is still healthy: the index shape
	// the drained workload paid for survives the restart.
	names, tenants := s.sortedTenants()
	for i, n := range names {
		t := tenants[i]
		if t.SnapshotPath == "" {
			continue
		}
		sv, ok := t.Backend.(Saver)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: tenant %q has a snapshot path but its backend cannot save", n)
			}
			continue
		}
		if e := sv.SaveFile(t.SnapshotPath); e != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: snapshot tenant %q: %w", n, e)
		}
	}
	return firstErr
}

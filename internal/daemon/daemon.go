package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/kasm"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Config tunes a Server. The zero value is serviceable: GOMAXPROCS
// workers, a queue twice that deep, a 64 MiB cache, no default
// deadline.
type Config struct {
	// Workers bounds concurrent backing compilations; 0 means
	// GOMAXPROCS (the same convention as portfolio racing, which shares
	// this budget when a request asks for it).
	Workers int
	// QueueDepth bounds admitted-but-not-yet-running compilations
	// beyond the worker pool; 0 means 2×Workers, negative means no
	// queue at all (overflow as soon as every worker is busy).
	QueueDepth int
	// CacheBytes is the in-memory schedule cache's LRU byte budget; 0
	// means 64 MiB.
	CacheBytes int64
	// CacheDir, when non-empty, arms the persistent disk cache tier in
	// that directory: compiled response bodies are written as
	// checksummed frames via temp-file + atomic rename, survive
	// restarts, and serve with X-Cschedd-Cache: disk. Empty keeps the
	// daemon memory-only.
	CacheDir string
	// CacheDiskBudget is the disk tier's byte budget; 0 means 256 MiB.
	// The startup scan evicts oldest-first down to the budget, so
	// shrinking it across a restart is safe.
	CacheDiskBudget int64
	// CacheFsync is the disk tier's durability policy: "always" (the
	// default; fsync the entry file and the directory on every write)
	// or "none" (leave flushing to the OS — entries can be lost on
	// power failure but can never be served torn: the frame checksum
	// quarantines partial flushes).
	CacheFsync string
	// DefaultTimeout bounds compilations whose request names no
	// timeout_ms; 0 means unbounded (drain can still cancel).
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds request bodies; 0 means 1 MiB.
	MaxBodyBytes int64
	// Degrade arms the stock degradation ladder for requests that do
	// not choose one themselves.
	Degrade bool
	// Faults arms the deterministic fault-injection plane on every
	// compilation — testing only, never exposed over the API.
	Faults *faultinject.Plane
	// Metrics is the registry to instrument into; nil builds a fresh
	// one (Server.Metrics returns it).
	Metrics *obs.Metrics
	// Logger receives the structured access/error log: exactly one line
	// per compile request, carrying the request ID, per-stage times, and
	// outcome. nil disables logging (the library default; cmd/cschedd
	// installs a JSON logger on stderr).
	Logger *slog.Logger
	// RecorderEntries sizes the flight-recorder ring behind
	// GET /debug/requests; 0 means 512, negative disables the recorder
	// entirely (the debug endpoints then 404).
	RecorderEntries int
	// TraceKeep caps how many captured full event traces stay resident
	// (hard kernels trace millions of events); 0 means 8.
	TraceKeep int
	// TraceSlow, when positive, arms full obs.Recorder trace capture
	// for backing compilations at least this slow; the trace is served
	// by GET /debug/requests/{id} as Chrome trace JSON.
	TraceSlow time.Duration
	// TraceErrors arms full trace capture for backing compilations that
	// fail. Tracing is passive (nil-Tracer zero-alloc and byte-identity
	// guarantees hold with capture armed); the cost is memory while a
	// traced compilation runs.
	TraceErrors bool
}

// Server is the compilation service. Create with New, serve via
// ServeHTTP (it implements http.Handler), and shut down with Drain.
type Server struct {
	cfg        Config
	workersN   int
	queueDepth int

	cache   *cache
	disk    *diskStore // nil when CacheDir is empty
	flights flightGroup
	// diskWG tracks in-flight asynchronous disk-cache writes; Drain
	// waits for it after the last request retires, so a SIGTERM racing
	// a fill never tears an entry and never leaks the writer goroutine.
	diskWG sync.WaitGroup
	// queue is a token bucket: sending acquires, receiving releases; it
	// caps admitted compilations (running + waiting). pool caps running
	// ones — and is shared with portfolio races, so a compilation that
	// fans out internally draws its extra workers from the same
	// machine-wide budget.
	queue chan struct{}
	pool  *core.Pool

	// baseCtx parents every backing compilation; Drain cancels it when
	// the grace period expires, unwinding in-flight compiles through
	// the cooperative cancellation machinery.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup // in-flight compile *requests* (not compiles)

	metrics   *obs.Metrics
	mRequests *obs.Counter
	mHits     *obs.Counter
	mMisses   *obs.Counter
	mCompiles *obs.Counter
	mErrors   *obs.Counter
	mRejected *obs.Counter
	// mMemoHits aggregates the search-effort counter of every backing
	// compilation: §4.4 solves short-circuited by the infeasibility
	// memo. Effort telemetry only — cache hits (which run no search)
	// contribute nothing.
	mMemoHits *obs.Counter
	mTraces   *obs.Counter
	// mCacheEvict counts in-memory LRU evictions; same-key replacements
	// are deliberately not evictions (the key never left the cache).
	mCacheEvict *obs.Counter
	gInflight   *obs.Gauge
	gQueued     *obs.Gauge
	gEntries    *obs.Gauge
	gBytes      *obs.Gauge
	// hRequest is the end-to-end request latency; hStages holds one
	// histogram per request-pipeline stage, keyed by stage name.
	hRequest *obs.Histogram
	hStages  map[string]*obs.Histogram

	// Request-scoped observability: the access logger, the flight
	// recorder behind /debug/requests, and the request-ID mint.
	logger   *slog.Logger
	recorder *flightRecorder
	bootID   string
	reqSeq   atomic.Uint64
}

// The stage names of the request clock, in pipeline order. Each has
// a matching cschedd_stage_<name>_seconds histogram.
const (
	stageResolve     = "resolve"
	stageCacheProbe  = "cache-probe"
	stageDiskProbe   = "disk-probe"
	stageSFWait      = "singleflight-wait"
	stageQueueWait   = "queue-wait"
	stagePoolAcquire = "pool-acquire"
	stageCompile     = "compile"
	stageSerialize   = "serialize"
)

// requestStages lists every stage for metric registration and the
// DESIGN.md taxonomy. disk-probe is only recorded when the disk tier is
// armed.
var requestStages = []string{
	stageResolve, stageCacheProbe, stageDiskProbe, stageSFWait,
	stageQueueWait, stagePoolAcquire, stageCompile, stageSerialize,
}

// retryAfterFor maps the admission backlog at rejection time to the
// Retry-After hint on a 429: the number of admitted compilations
// (running + queued) divided by the worker pool width, rounded up, is
// how many "generations" of work stand between the client and a free
// worker. Clamped to [1, maxRetryAfterS] — a hint, not a forecast.
func retryAfterFor(admitted, workers int) int {
	if workers < 1 {
		workers = 1
	}
	s := (admitted + workers - 1) / workers
	if s < 1 {
		s = 1
	}
	if s > maxRetryAfterS {
		s = maxRetryAfterS
	}
	return s
}

// maxRetryAfterS caps the Retry-After hint; past this the client should
// be balancing onto another replica, not sleeping longer.
const maxRetryAfterS = 30

// New builds a Server from cfg. It fails only on configuration that
// cannot be defaulted: an unusable cache directory or an unknown fsync
// policy.
func New(cfg Config) (*Server, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	switch {
	case depth == 0:
		depth = 2 * workers
	case depth < 0:
		depth = 0
	}
	budget := cfg.CacheBytes
	if budget <= 0 {
		budget = 64 << 20
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	m := cfg.Metrics
	if m == nil {
		m = obs.NewMetrics()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		workersN:   workers,
		queueDepth: depth,
		cache:      newCache(budget),
		queue:      make(chan struct{}, workers+depth),
		pool:       core.NewPool(workers),
		baseCtx:    ctx,
		cancel:     cancel,
		metrics:    m,
	}
	s.mRequests = m.Counter("cschedd_requests_total", "compile requests received")
	s.mHits = m.Counter("cschedd_cache_hits_total", "compile requests served from the schedule cache")
	s.mMisses = m.Counter("cschedd_cache_misses_total", "compile requests that missed the schedule cache")
	s.mCompiles = m.Counter("cschedd_compilations_total", "backing compilations run (cache and singleflight collapse the rest)")
	s.mErrors = m.Counter("cschedd_compile_errors_total", "backing compilations that failed")
	s.mRejected = m.Counter("cschedd_rejected_total", "compile requests rejected by admission control (429)")
	s.mMemoHits = m.Counter("cschedd_memo_hits_total", "permutation solves short-circuited by the infeasibility memo")
	s.mTraces = m.Counter("cschedd_traces_captured_total", "full event traces captured by the flight recorder")
	s.mCacheEvict = m.Counter("cschedd_cache_evictions_total", "in-memory schedule cache entries evicted by the byte budget (replacements excluded)")
	s.gInflight = m.Gauge("cschedd_inflight", "backing compilations running now")
	s.gQueued = m.Gauge("cschedd_queued", "admitted compilations waiting for a worker")
	s.gEntries = m.Gauge("cschedd_cache_entries", "schedule cache entries resident")
	s.gBytes = m.Gauge("cschedd_cache_bytes", "schedule cache bytes resident")
	s.hRequest = m.Histogram("cschedd_request_duration_seconds", "end-to-end compile request latency, cache hits and errors included",
		[]float64{0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30})
	s.hStages = make(map[string]*obs.Histogram, len(requestStages))
	for _, st := range requestStages {
		name := "cschedd_stage_" + strings.ReplaceAll(st, "-", "_") + "_seconds"
		s.hStages[st] = m.Histogram(name, "time spent in the "+st+" stage of the request pipeline",
			[]float64{1e-6, 1e-5, 1e-4, 0.001, 0.01, 0.1, 0.5, 1, 5, 30})
	}

	switch cfg.CacheFsync {
	case "", "always", "none":
	default:
		return nil, fmt.Errorf("daemon: unknown cache fsync policy %q (want always or none)", cfg.CacheFsync)
	}
	if cfg.CacheDir != "" {
		diskBudget := cfg.CacheDiskBudget
		if diskBudget <= 0 {
			diskBudget = 256 << 20
		}
		disk, err := newDiskStore(cfg.CacheDir, diskBudget, cfg.CacheFsync != "none", cfg.Faults, m)
		if err != nil {
			return nil, err
		}
		s.disk = disk
	}

	s.logger = cfg.Logger
	entries := cfg.RecorderEntries
	if entries == 0 {
		entries = 512
	}
	s.recorder = newFlightRecorder(entries, cfg.TraceKeep)
	s.bootID = newBootID()
	return s, nil
}

// Metrics returns the server's registry (for /metrics siblings and
// shutdown snapshots).
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// cachePut stores body in the in-memory tier and refreshes the cache
// gauges and eviction counter. Replacing an existing key is not an
// eviction and bumps nothing.
func (s *Server) cachePut(key string, body []byte) {
	if evicted := s.cache.put(key, body); evicted > 0 {
		s.mCacheEvict.Add(int64(evicted))
	}
	entries, bytes := s.cache.stats()
	s.gEntries.Set(int64(entries))
	s.gBytes.Set(bytes)
}

// diskPut persists body asynchronously when the disk tier is armed. The
// write is tracked by diskWG so Drain retires it before returning; it
// is never cancelled — a frame is small and already has its bytes, so
// finishing is both cheaper and safer than tearing.
func (s *Server) diskPut(key string, body []byte) {
	if s.disk == nil {
		return
	}
	s.diskWG.Add(1)
	go func() {
		defer s.diskWG.Done()
		s.disk.put(key, body)
	}()
}

// enter admits one compile request into the drain-tracked set; it
// fails once draining started.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the server down gracefully: new compile requests are
// refused (503; /healthz flips unhealthy), in-flight compilations get
// until ctx is done to finish, then are cancelled cooperatively
// through the compiler's context machinery and reported as 499s.
// Drain returns when the last compile request has been answered; the
// status, metrics, and health endpoints keep serving throughout (and
// after), so a final metrics snapshot can still be scraped.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel()
		<-done
	}
	s.cancel()
	// Disk fills are asynchronous but never cancelled: a write in
	// flight when the signal lands completes (it is small and already
	// has its bytes), so a drain leaves every entry whole on disk. No
	// new writes can start — the last request already retired.
	s.diskWG.Wait()
}

// ServeHTTP routes the server's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/compile":
		if r.Method != http.MethodPost {
			s.jsonError(w, http.StatusMethodNotAllowed, "method-not-allowed",
				fmt.Sprintf("%s not allowed; POST a compile request", r.Method))
			return
		}
		s.handleCompile(w, r)
	case "/v1/status":
		s.handleStatus(w)
	case "/metrics":
		s.metricsText(w)
	case "/healthz":
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	case "/debug/requests":
		s.handleDebugRequests(w)
	default:
		if strings.HasPrefix(r.URL.Path, "/debug/requests/") {
			s.handleDebugTrace(w, r.URL.Path)
			return
		}
		s.jsonError(w, http.StatusNotFound, "not-found", fmt.Sprintf("no handler for %s", r.URL.Path))
	}
}

func (s *Server) metricsText(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w)
}

func (s *Server) handleStatus(w http.ResponseWriter) {
	entries, bytes := s.cache.stats()
	resp := StatusResponse{
		Draining:     s.Draining(),
		Inflight:     s.gInflight.Value(),
		Queued:       s.gQueued.Value(),
		Workers:      s.workersN,
		QueueDepth:   s.queueDepth,
		Requests:     s.mRequests.Value(),
		Compilations: s.mCompiles.Value(),
		CacheHits:    s.mHits.Value(),
		CacheMisses:  s.mMisses.Value(),
		Rejected:     s.mRejected.Value(),
		Errors:       s.mErrors.Value(),
		CacheEntries: int64(entries),
		CacheBytes:   bytes,
		CacheBudget:  s.cache.budget,
	}
	if s.disk != nil {
		dentries, dbytes := s.disk.stats()
		resp.DiskDir = s.disk.dir
		resp.DiskEntries = int64(dentries)
		resp.DiskBytes = dbytes
		resp.DiskBudget = s.disk.budget
		resp.DiskHits = s.disk.hits.Value()
		resp.DiskMisses = s.disk.misses.Value()
		resp.DiskCorrupt = s.disk.corrupt.Value()
		resp.DiskEvictions = s.disk.evictions.Value()
	}
	writeJSON(w, http.StatusOK, resp, "")
}

// handleCompile is the serving pipeline described in the package
// comment: resolve, key, cache, singleflight, admission, compile —
// every step clocked as a stage of the request, finished with
// one access-log line and one flight-recorder record.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	rm := &reqMeta{id: s.requestID(r), clock: obs.NewClock()}
	w.Header().Set(RequestIDHeader, rm.id)
	defer s.finishRequest(rm)

	if !s.enter() {
		s.serveError(w, rm, ErrorDetail{Status: http.StatusServiceUnavailable,
			Kind: "draining", Reason: "server is draining; retry against a live replica"}, "")
		return
	}
	defer s.inflight.Done()
	s.mRequests.Inc()

	rm.clock.Push(stageResolve)
	req, k, m, opts, derr := s.resolve(r)
	rm.clock.Pop(derr == nil)
	if derr != nil {
		s.serveError(w, rm, *derr, "")
		return
	}
	rm.kernel, rm.machine = k.Name, m.Name

	rm.clock.Push(stageCacheProbe)
	key := Key(k, m, opts, req.Portfolio)
	body, hit := s.cache.get(key)
	rm.clock.Pop(true)
	rm.key = key
	if hit {
		s.mHits.Inc()
		s.serveOutcome(w, rm, outcome{status: http.StatusOK, body: body}, "hit")
		return
	}
	if s.disk != nil {
		// Second tier: a disk hit is promoted into memory (the next
		// probe for this key is a memory hit) and served with the
		// "disk" disposition so operators can see warm restarts work.
		rm.clock.Push(stageDiskProbe)
		dbody, dhit := s.disk.get(key)
		rm.clock.Pop(true)
		if dhit {
			s.cachePut(key, dbody)
			s.serveOutcome(w, rm, outcome{status: http.StatusOK, body: dbody}, "disk")
			return
		}
	}
	s.mMisses.Inc()

	f, leader := s.flights.join(key, rm.id)
	if !leader {
		rm.leaderID = f.leaderID
		rm.clock.Push(stageSFWait)
		out, err := f.wait(r.Context())
		rm.clock.Pop(err == nil)
		if err != nil {
			// The follower gave up before the leader published; it was
			// still a join — a failed join and a failed miss are
			// different situations, and the header says which.
			s.serveError(w, rm, ctxDetail(err), "join")
			return
		}
		s.serveOutcome(w, rm, out, "join")
		return
	}
	out, state := s.lead(r, rm, key, f, req, k, m, opts)
	s.serveOutcome(w, rm, out, state)
}

// lead runs the flight-leader side: admission control, the backing
// compilation, cache fill, and flight completion. Whatever outcome it
// returns has already been published to the flight's followers. The
// second result is the cache disposition the leader serves: "hit" when
// the double-checked probe found a concurrently finished flight's fill,
// else "miss" — on error outcomes too, so operators can tell a failed
// miss from a failed join.
func (s *Server) lead(r *http.Request, rm *reqMeta, key string, f *flight, req *CompileRequest, k *ir.Kernel, m *machine.Machine, opts core.Options) (outcome, string) {
	// A flight for this key may have completed between the cache probe
	// and leadership: its leader fills the cache before retiring the
	// flight, so re-probing here keeps "one compilation per key"
	// airtight.
	if body, ok := s.cache.get(key); ok {
		out := outcome{status: http.StatusOK, body: body}
		s.flights.finish(key, f, out)
		return out, "hit"
	}

	// Admission: a queue token covers the compilation from here to
	// completion; none free means the backlog is full — shed load now,
	// with a Retry-After hint scaled to the backlog actually in front
	// of the client.
	rm.clock.Push(stageQueueWait)
	select {
	case s.queue <- struct{}{}:
		rm.clock.Pop(true)
	default:
		rm.clock.Pop(false)
		s.mRejected.Inc()
		retryAfter := retryAfterFor(len(s.queue), s.workersN)
		out := s.errorOutcome(http.StatusTooManyRequests, ErrorDetail{
			Kind:        "overloaded",
			Reason:      fmt.Sprintf("admission queue full (%d workers, depth %d); retry after %ds", s.workersN, s.queueDepth, retryAfter),
			RetryAfterS: retryAfter,
		})
		s.flights.finish(key, f, out)
		return out, "miss"
	}
	defer func() { <-s.queue }()

	// Wait for a worker slot; the request context and drain can both
	// abandon the wait.
	s.gQueued.Add(1)
	rm.clock.Push(stagePoolAcquire)
	wctx, wcancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, wcancel)
	acqErr := s.pool.Acquire(wctx)
	stop()
	wcancel()
	rm.clock.Pop(acqErr == nil)
	s.gQueued.Add(-1)
	if acqErr != nil {
		cancelledWaiting := r.Context().Err()
		if cancelledWaiting == nil {
			cancelledWaiting = context.Canceled // drain struck first
		}
		out := s.errorOutcome(0, ctxDetail(cancelledWaiting))
		s.flights.finish(key, f, out)
		return out, "miss"
	}
	defer s.pool.Release()

	// The backing compilation runs under the server's lifetime, not
	// the leader's connection: a disconnecting client must not starve
	// the followers sharing this flight. The request deadline (or the
	// server default) propagates into CompileContext.
	ctx := s.baseCtx
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		tctx, tcancel := context.WithTimeout(ctx, timeout)
		defer tcancel()
		ctx = tctx
	}

	s.mCompiles.Inc()
	s.gInflight.Add(1)
	// Arm full trace capture when the flight recorder wants it: the
	// Recorder is passive (byte-identity and determinism hold), and it
	// is only retained when the compile errs or crosses the latency
	// threshold — otherwise it is garbage the moment this frame returns.
	var rec *obs.Recorder
	if s.recorder != nil && (s.cfg.TraceErrors || s.cfg.TraceSlow > 0) {
		rec = obs.NewRecorder()
		opts.Tracer = rec
	}
	rm.clock.Push(stageCompile)
	var (
		sched *core.Schedule
		err   error
	)
	// Portfolio racing draws extra workers from the server's own pool:
	// the leader's held slot covers worker zero, extras are
	// try-acquired, so nested parallelism can never deadlock admission.
	if req.Portfolio {
		sched, _, err = core.CompilePortfolio(ctx, k, m, opts, core.PortfolioOptions{Workers: s.workersN, Pool: s.pool})
	} else {
		sched, err = core.CompileContext(ctx, k, m, opts)
	}
	rm.clock.Pop(err == nil)
	s.gInflight.Add(-1)
	if rec != nil && ((err != nil && s.cfg.TraceErrors) || (s.cfg.TraceSlow > 0 && rm.clock.Stage(stageCompile).Wall >= s.cfg.TraceSlow)) {
		s.recorder.capture(rm.id, rec)
		rm.traced = true
		s.mTraces.Inc()
	}

	var out outcome
	if err != nil {
		s.mErrors.Inc()
		out = s.errorOutcome(HTTPStatus(err), compileDetail(err))
	} else {
		rm.memoHits = sched.Stats.MemoHits
		s.mMemoHits.Add(int64(sched.Stats.MemoHits))
		rm.clock.Push(stageSerialize)
		body, merr := json.Marshal(buildResponse(key, k, sched))
		rm.clock.Pop(merr == nil)
		if merr != nil {
			out = s.errorOutcome(http.StatusInternalServerError, ErrorDetail{Kind: "internal", Reason: merr.Error()})
		} else {
			body = append(body, '\n')
			s.cachePut(key, body)
			s.diskPut(key, body)
			out = outcome{status: http.StatusOK, body: body}
		}
	}
	s.flights.finish(key, f, out)
	return out, "miss"
}

// resolve parses and validates a compile request into its kernel,
// machine, and options. A non-nil ErrorDetail is a 4xx the caller
// serves verbatim.
func (s *Server) resolve(r *http.Request) (*CompileRequest, *ir.Kernel, *machine.Machine, core.Options, *ErrorDetail) {
	fail := func(status int, kind, reason string) (*CompileRequest, *ir.Kernel, *machine.Machine, core.Options, *ErrorDetail) {
		return nil, nil, nil, core.Options{}, &ErrorDetail{Status: status, Kind: kind, Reason: reason}
	}

	dec := json.NewDecoder(io.LimitReader(r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req CompileRequest
	if err := dec.Decode(&req); err != nil {
		return fail(http.StatusBadRequest, "bad-request", "malformed request body: "+err.Error())
	}

	var k *ir.Kernel
	switch {
	case req.Kernel != "" && req.Source != "":
		return fail(http.StatusBadRequest, "bad-request", "kernel and source are mutually exclusive")
	case req.Kernel == "fig4":
		k = kernels.Motivating()
	case req.Kernel != "":
		spec := kernels.ByName(req.Kernel)
		if spec == nil {
			return fail(http.StatusBadRequest, "invalid-input", fmt.Sprintf("unknown kernel %q (Table 1 names or \"fig4\")", req.Kernel))
		}
		var err error
		if k, err = spec.Kernel(); err != nil {
			return fail(http.StatusInternalServerError, "internal", "built-in kernel failed to compile: "+err.Error())
		}
	case req.Source != "":
		var err error
		if k, err = kasm.Compile(req.Source); err != nil {
			return fail(http.StatusBadRequest, "invalid-input", "kernel source: "+err.Error())
		}
	default:
		return fail(http.StatusBadRequest, "bad-request", "need kernel (a built-in name) or source (kasm text)")
	}

	var m *machine.Machine
	switch {
	case req.Machine != "" && req.MachineText != "":
		return fail(http.StatusBadRequest, "bad-request", "machine and machine_text are mutually exclusive")
	case req.MachineText != "":
		var err error
		if m, err = machine.ParseText(req.MachineText); err != nil {
			return fail(http.StatusBadRequest, "invalid-input", "machine_text: "+err.Error())
		}
	default:
		name := req.Machine
		if name == "" {
			name = "distributed"
		}
		if m = machine.ByName(name); m == nil {
			return fail(http.StatusBadRequest, "invalid-input", fmt.Sprintf("unknown machine %q", name))
		}
	}

	opts := req.Options.options()
	opts.Faults = s.cfg.Faults
	if l := ladder(req.Ladder); l != nil {
		opts.Degrade = l
	} else if req.Degrade || s.cfg.Degrade {
		opts.Degrade = core.DefaultDegradeLadder()
	}
	if err := opts.ValidateFor(m); err != nil {
		d := compileDetail(err)
		d.Status = HTTPStatus(err)
		return nil, nil, nil, core.Options{}, &d
	}
	return &req, k, m, opts, nil
}

// buildResponse projects a finished schedule into the deterministic
// response body.
func buildResponse(key string, k *ir.Kernel, sched *core.Schedule) CompileResponse {
	return CompileResponse{
		Key:         key,
		Kernel:      k.Name,
		Machine:     sched.Machine.Name,
		II:          sched.II,
		Preamble:    sched.PreambleLen,
		LoopSpan:    sched.LoopSpan,
		Copies:      len(sched.Ops) - len(k.Ops),
		Degraded:    sched.Degraded,
		Fingerprint: fingerprintHex(sched),
		Schedule:    sched.Dump(),
		Passes:      passBodies(sched.Passes),
		Utilization: sched.InterconnectUtilization(),
	}
}

// compileDetail projects a compilation error into the wire shape.
func compileDetail(err error) ErrorDetail {
	d := ErrorDetail{Status: HTTPStatus(err), Kind: "internal", Reason: err.Error()}
	var ce *core.CompileError
	if errors.As(err, &ce) {
		d.Kind = ce.Kind.String()
		d.Reason = ce.Reason
		d.Pass = ce.Pass
		d.Kernel = ce.Kernel
		d.Machine = ce.Machine
		d.II = ce.II
		if ce.Op != core.NoOp {
			d.Op = int(ce.Op)
		}
		d.Line = ce.Line
	}
	return d
}

// ctxDetail maps a context error on a request's own wait (a follower
// abandoning a flight, a leader abandoning the worker queue) to the
// wire shape.
func ctxDetail(err error) ErrorDetail {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrorDetail{Status: http.StatusGatewayTimeout, Kind: core.KindDeadlineExceeded.String(), Reason: "deadline expired before a result was available"}
	}
	return ErrorDetail{Status: StatusClientClosedRequest, Kind: core.KindCancelled.String(), Reason: "request cancelled before a result was available"}
}

// errorOutcome marshals an error detail as a servable outcome. status
// overrides d.Status when non-zero.
func (s *Server) errorOutcome(status int, d ErrorDetail) outcome {
	if status != 0 {
		d.Status = status
	}
	body, err := json.Marshal(ErrorBody{Error: d})
	if err != nil { // unreachable: ErrorDetail is plain data
		d = ErrorDetail{Status: http.StatusInternalServerError, Kind: "internal", Reason: err.Error()}
		body, _ = json.Marshal(ErrorBody{Error: d})
	}
	return outcome{status: d.Status, body: append(body, '\n'), kind: d.Kind, retryAfter: d.RetryAfterS}
}

// serveOutcome stamps a finished outcome into the request's meta and
// writes it to the wire.
func (s *Server) serveOutcome(w http.ResponseWriter, rm *reqMeta, out outcome, cacheState string) {
	rm.status = out.status
	rm.cache = cacheState
	rm.errKind = out.kind
	s.serveBody(w, out, cacheState)
}

// serveError is serveOutcome for a bare error detail.
func (s *Server) serveError(w http.ResponseWriter, rm *reqMeta, d ErrorDetail, cacheState string) {
	s.serveOutcome(w, rm, s.errorOutcome(0, d), cacheState)
}

// jsonError writes a transport-level error shape (routing and method
// errors; requests that never reached the compile pipeline).
func (s *Server) jsonError(w http.ResponseWriter, status int, kind, reason string) {
	s.serveBody(w, s.errorOutcome(0, ErrorDetail{Status: status, Kind: kind, Reason: reason}), "")
}

// serveBody writes a finished outcome: JSON content type, the
// schedule-cache disposition header on compile responses, and the
// Retry-After hint on 429s (from the outcome, so followers repeat the
// leader's backlog-derived hint).
func (s *Server) serveBody(w http.ResponseWriter, out outcome, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	if cacheState != "" {
		w.Header().Set(CacheStateHeader, cacheState)
	}
	if out.status == http.StatusTooManyRequests {
		ra := out.retryAfter
		if ra < 1 {
			ra = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(ra))
	}
	w.WriteHeader(out.status)
	w.Write(out.body)
}

// writeJSON marshals v as the response body.
func writeJSON(w http.ResponseWriter, status int, v any, cacheState string) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if cacheState != "" {
		w.Header().Set(CacheStateHeader, cacheState)
	}
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// Package serve is the prediction daemon: a stdlib net/http server
// exposing the trained system's predict / recommend / explain paths as
// JSON endpoints over the compiled serving tables (see DESIGN.md §13).
//
// The request hot path is allocation-free in steady state: requests
// load the serving generation through one atomic pointer (lock-free
// reads), per-request scratch comes from a typed sync.Pool arena,
// queries are parsed by substring scanning (no net/url allocation),
// and responses are serialized by the append encoder in
// jsonenc.go/encode.go, which copies the generation's pre-rendered
// bytes and formats only what the query changes. Admission is a
// lock-free token bucket plus a queue-depth cap, both driven by an
// injectable Clock so shedding behaviour is deterministic under test.
// Model hot-swap (SIGHUP, /admin/reload, or an accepted calibration
// refit, each rendered and golden-probed in one pass) publishes a new
// generation with one atomic store; in-flight requests finish on the
// generation they loaded at entry.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ceer"
	"ceer/internal/retry"
)

// Options configures a Server. The zero value serves the default zoo
// batch with no admission limits.
type Options struct {
	// Batch is the per-GPU batch size the zoo tables are compiled at
	// (0 = the paper default, 32). A request for another batch size
	// compiles its one graph from the serving generation's predictor
	// (cold path, once per request).
	Batch int64
	// MaxK bounds candidate GPU counts per family (0 = 4, the paper's
	// sweep).
	MaxK int
	// ModelPath, when non-empty, is the persist-v3 model file Reload
	// (and SIGHUP / POST /admin/reload) re-reads for hot-swap, unless
	// Calibration is on.
	ModelPath string
	// RatePerSec caps sustained admitted request rate over the /v1/*
	// endpoints via a token bucket (0 = unlimited).
	RatePerSec float64
	// Burst is the token-bucket depth in requests (0 = max(1, ⌈rate⌉)).
	Burst int
	// MaxInFlight caps concurrent /v1/* requests; excess sheds with 429
	// (0 = unlimited).
	MaxInFlight int
	// RequestTimeout is the per-request compute budget; a request over
	// budget answers 504 (0 = none).
	RequestTimeout time.Duration
	// Warmup pre-compiles the tables, pre-faults the arena, and runs
	// synthetic requests through every hot endpoint before the server
	// accepts traffic, so the first real request is already on the
	// zero-allocation warm path.
	Warmup bool
	// Clock overrides the time source (tests; nil = monotonic clock).
	Clock Clock

	// Calibration enables the in-daemon observe→predict→calibrate loop
	// behind POST /v1/observe (nil = endpoint answers 404). See
	// CalibrationOptions for the crash-safety contract.
	Calibration *CalibrationOptions

	// ReloadTolerance bounds the golden-probe divergence a reload (or
	// calibration refit) may introduce: every probe prediction must be
	// finite, positive, and within this relative fraction of the serving
	// generation's value (0 = 0.5). Swaps outside tolerance are rejected;
	// the old generation keeps serving.
	ReloadTolerance float64

	// PanicThreshold trips the breaker into the degraded state after
	// this many recovered handler panics within PanicWindow (0 = 3).
	PanicThreshold int
	// PanicWindow is the breaker's sliding window (0 = 10s).
	PanicWindow time.Duration
	// RecoveryWindow is how long after the last recovered panic the
	// breaker un-trips back to healthy (0 = 30s).
	RecoveryWindow time.Duration
}

// modelEntry names a zoo model. Entries live in a slice scanned
// linearly — 12 string compares beat a map lookup at this size and keep
// the resolver legal under the hot-path proof.
type modelEntry struct {
	name string
	// slot is the entry's index in Server.models, which is its graph's
	// index in Server.graphs and its slot in a zoo generation.
	slot int
}

// candMeta precomputes what the encoder and resolvers need for one
// candidate configuration. Config.String, InstanceName, ID.Family and
// HourlyCost allocate or take the registry lock, so they run once at
// construction, never per request.
type candMeta struct {
	config string // "2xP3"
	gpu    string // "v100"
	family string // "P3"
	k      int
	// full is the candidate's index in the full candidate set, where a
	// generation keeps its fragments.
	full int
	// head is the prediction object from its opening brace through
	// `"iterations":` under each pricing scheme (see pricingIndex):
	// config, instance, gpu, k and hourly_usd are fixed once the server
	// is built. A scheme without a price for the candidate leaves it
	// nil; every request for it fails before encoding.
	head [2][]byte
}

// Server is the daemon. Create with New, expose via Handler or Serve,
// stop with Shutdown.
type Server struct {
	batch  int64
	maxK   int
	opts   Options
	clock  Clock
	budget int64 // RequestTimeout in nanos (0 = none)

	// cur is the serving generation: the compiled tables, their number
	// and their pre-rendered response bytes, published together by New
	// and install. Every answer, at any batch size, comes from the
	// generation a request loaded once.
	cur atomic.Pointer[generation]

	models []modelEntry
	// graphs lists the zoo graphs in models order: the graph set of the
	// serving tables and of every zoo generation.
	graphs []*ceer.Graph
	// candsByK[k] / metaByK[k] list every candidate configuration with
	// 1..k GPUs per family (cloud.Configs order), k = 1..maxK.
	candsByK [][]ceer.InstanceConfig
	metaByK  [][]candMeta

	arena    *arena
	met      metrics
	bucket   *tokenBucket
	maxInfl  int64
	inflight atomic.Int64
	draining atomic.Bool
	ready    atomic.Bool

	// breaker is the panic circuit breaker behind the health state
	// machine; tol bounds golden-probe divergence on swaps.
	breaker *panicBreaker
	tol     float64

	// calib is the in-daemon calibration loop (nil when disabled).
	calib *calibLoop

	// reloadMu serializes swaps (load, probe, numbering and
	// publication) and guards httpSrv.
	reloadMu sync.Mutex
	httpSrv  *http.Server
	startNs  int64
	// reloadRetry absorbs mid-write model files: load attempts whose
	// JSON never decoded (PersistError.Version == 0) retry with
	// backoff before the reload is rejected.
	reloadRetry retry.Policy
	// lastReloadCause names the most recent rejected swap's typed
	// cause ("" after a success); surfaced by /metrics.
	lastReloadCause atomic.Pointer[string]

	// afterAdmit is a test hook invoked after admission, before the
	// endpoint handler (drain and race tests park requests here).
	afterAdmit func(ep int)
}

// New builds a Server over a trained (or loaded) system: compiles the
// zoo tables at the serving batch size, caches every zoo graph and
// candidate-configuration string, and (with Options.Warmup) pre-faults
// the arena and exercises every hot endpoint.
func New(sys *ceer.System, opts Options) (*Server, error) {
	s := &Server{opts: opts, batch: opts.Batch, maxK: opts.MaxK, clock: opts.Clock}
	if s.batch == 0 {
		s.batch = 32 // the zoo default batch (paper Section III)
	}
	if s.maxK <= 0 {
		s.maxK = 4
	}
	if s.clock == nil {
		s.clock = NewRealClock()
	}
	s.budget = opts.RequestTimeout.Nanoseconds()
	s.startNs = s.clock.Nanos()

	comp, err := sys.Compiled(s.batch)
	if err != nil {
		return nil, fmt.Errorf("serve: compiling zoo tables: %w", err)
	}

	names := ceer.Models()
	s.models = make([]modelEntry, 0, len(names))
	s.graphs = make([]*ceer.Graph, 0, len(names))
	for i, name := range names {
		g, err := ceer.BuildModelCached(name, s.batch)
		if err != nil {
			return nil, fmt.Errorf("serve: building %s: %w", name, err)
		}
		s.models = append(s.models, modelEntry{name: name, slot: i})
		s.graphs = append(s.graphs, g)
	}

	s.candsByK = make([][]ceer.InstanceConfig, s.maxK+1)
	s.metaByK = make([][]candMeta, s.maxK+1)
	full := ceer.AllConfigs(s.maxK)
	for k := 1; k <= s.maxK; k++ {
		cands := ceer.AllConfigs(k)
		metas := make([]candMeta, len(cands))
		for i, cfg := range cands {
			metas[i] = newCandMeta(cfg, slices.Index(full, cfg))
		}
		s.candsByK[k] = cands
		s.metaByK[k] = metas
	}
	gen, _ := s.newGeneration(comp, 0, s.graphs, nil) // unprobed, it cannot fail
	s.cur.Store(gen)

	s.arena = newArena()
	if opts.RatePerSec > 0 {
		burst := opts.Burst
		if burst <= 0 {
			burst = int(opts.RatePerSec)
			if float64(burst) < opts.RatePerSec {
				burst++
			}
			if burst < 1 {
				burst = 1
			}
		}
		s.bucket = newTokenBucket(opts.RatePerSec, burst, s.clock.Nanos())
	}
	s.maxInfl = int64(opts.MaxInFlight)

	s.tol = opts.ReloadTolerance
	if s.tol <= 0 {
		s.tol = 0.5
	}
	s.breaker = newPanicBreaker(opts.PanicThreshold, opts.PanicWindow, opts.RecoveryWindow)
	s.reloadRetry = retry.Policy{
		MaxAttempts: 3,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Classify:    classifyReloadFault,
	}

	if opts.Calibration != nil {
		if err := s.initCalibration(sys, opts.Calibration); err != nil {
			return nil, err
		}
	}

	if opts.Warmup {
		s.warmup()
	}
	s.ready.Store(true)
	return s, nil
}

// Handler returns the daemon's http.Handler (the Server itself).
func (s *Server) Handler() http.Handler { return s }

// Generation returns the serving model generation: 0 at start, +1 per
// successful Reload/Install.
func (s *Server) Generation() uint64 { return s.cur.Load().num }

// Tables returns the serving generation's compiled tables. They are
// immutable; replace them through Install or Reload.
func (s *Server) Tables() *ceer.CompiledSystem { return s.cur.Load().comp }

// Install publishes pre-compiled tables as the next generation
// (programmatic hot-swap, unprobed; Reload is the file-based form). It
// renders the generation's response bytes, numbers it one past the
// serving generation and publishes tables, number and bytes with one
// atomic store, so no request or /healthz pairs one generation's tables
// with another's bytes or number. Concurrent Installs serialize.
// In-flight requests finish on the generation they already loaded.
func (s *Server) Install(comp *ceer.CompiledSystem) uint64 {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	gen, _ := s.install(comp, nil) // unprobed, it cannot fail
	return gen
}

// install publishes comp as the next generation unless it fails the
// golden probe against base (newGeneration). Callers hold reloadMu.
func (s *Server) install(comp *ceer.CompiledSystem, base *generation) (uint64, error) {
	next, err := s.newGeneration(comp, s.cur.Load().num+1, s.graphs, base)
	if err != nil {
		return 0, err
	}
	s.cur.Store(next)
	return next.num, nil
}

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s}
	s.reloadMu.Lock()
	s.httpSrv = srv
	s.reloadMu.Unlock()
	return srv.Serve(ln)
}

// DrainError reports a drain that hit its deadline with requests still
// in flight. The listener is force-closed before it is returned — the
// daemon does not hang on a stuck request — and the straggler count is
// carried for the operator log.
type DrainError struct {
	// InFlight is the number of requests still running at the deadline.
	InFlight int64
	// Err is the context error that ended the wait.
	Err error
}

func (e *DrainError) Error() string {
	return fmt.Sprintf("serve: drain deadline reached with %d requests still in flight: %v", e.InFlight, e.Err)
}

// Unwrap exposes the deadline cause to errors.Is.
func (e *DrainError) Unwrap() error { return e.Err }

// Shutdown drains the daemon: new /v1/* and /admin requests answer 503
// immediately, every in-flight request runs to completion on its
// already-loaded tables, then the listener closes. /healthz keeps
// answering (status "draining") throughout, so orchestrators can watch
// the drain. If ctx expires first, the listener is force-closed —
// cutting the stragglers — and a *DrainError carrying their count is
// returned, so a stuck in-flight request can never wedge shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	for s.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			n := s.inflight.Load()
			s.reloadMu.Lock()
			srv := s.httpSrv
			s.reloadMu.Unlock()
			if srv != nil {
				_ = srv.Close() // cut the stragglers; Serve returns
			}
			return &DrainError{InFlight: n, Err: ctx.Err()}
		default:
			time.Sleep(200 * time.Microsecond)
		}
	}
	if s.calib != nil {
		// All in-flight observations are journaled and applied; close
		// the journal so its final bytes are flushed and fsynced.
		s.calib.close()
	}
	s.reloadMu.Lock()
	srv := s.httpSrv
	s.reloadMu.Unlock()
	if srv != nil {
		return srv.Shutdown(ctx)
	}
	return nil
}

// DoLocal runs one request through the handler in-process — no
// listener, no TCP — and returns the status code and body. It is the
// warmup driver, the `ceer predict -json` back end (which is how the
// smoke test byte-compares CLI and daemon output), and a convenient
// test primitive.
func (s *Server) DoLocal(method, path, rawQuery string) (int, []byte) {
	return s.DoLocalBody(method, path, rawQuery, nil)
}

// DoLocalBody is DoLocal with a request body (POST /v1/observe).
func (s *Server) DoLocalBody(method, path, rawQuery string, body []byte) (int, []byte) {
	w := &memWriter{}
	r := &http.Request{Method: method, URL: &url.URL{Path: path, RawQuery: rawQuery}}
	if body != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	s.ServeHTTP(w, r)
	status := w.status
	if status == 0 {
		status = http.StatusOK
	}
	return status, w.body
}

// memWriter is the in-process ResponseWriter behind DoLocal.
type memWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *memWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *memWriter) WriteHeader(status int) { w.status = status }
func (w *memWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// warmup exercises every hot endpoint over every zoo model with
// synthetic in-process requests, pre-faults the arena, then resets the
// metrics and refills the admission bucket so warmup traffic is
// invisible to clients. After warmup the first real request runs the
// steady-state zero-allocation path (pinned by the first-request test).
func (s *Server) warmup() {
	s.arena.prefault(4, len(s.candsByK[s.maxK]))
	for _, m := range s.models {
		q := "model=" + m.name
		s.DoLocal(http.MethodGet, "/v1/predict", q)
		s.DoLocal(http.MethodGet, "/v1/recommend", q+"&objective=cost")
		s.DoLocal(http.MethodGet, "/v1/recommend", q+"&objective=time&max_hourly_usd=1e9")
	}
	s.DoLocal(http.MethodGet, "/healthz", "")
	s.met.reset()
	if s.bucket != nil {
		s.bucket.reset(s.clock.Nanos())
	}
}

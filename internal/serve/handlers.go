package serve

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"ceer"
)

// endpointOf routes a path to its endpoint index.
//
//hot:path
func endpointOf(path string) int {
	switch path {
	case "/v1/predict":
		return epPredict
	case "/v1/recommend":
		return epRecommend
	case "/v1/explain":
		return epExplain
	case "/v1/observe":
		return epObserve
	case "/healthz":
		return epHealthz
	case "/metrics":
		return epMetrics
	case "/admin/reload":
		return epAdmin
	default:
		return epOther
	}
}

// ServeHTTP is the daemon's single entry point: route, admission
// (draining → queue depth → token bucket, /v1/* only), then dispatch.
// The admission decisions are pure functions of the Clock and the
// request sequence, so a virtual clock makes shedding deterministic.
//
//hot:path
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	//lint:ignore allocfree Clock is an interface for virtual-time tests; both implementations (monotonic wrapper, test clock) are allocation-free
	start := s.clock.Nanos()
	ep := endpointOf(r.URL.Path)
	// Panic isolation boundary: a directly deferred method call (no
	// closure), so a panicking handler becomes a structured 500 and a
	// breaker event instead of killing the daemon. Handlers return
	// their arena scratches with their own, later defers, which unwind
	// first — a panic never leaks a scratch.
	defer s.recoverPanic(w, ep, start)
	switch ep {
	case epOther:
		s.respondError(w, ep, http.StatusNotFound, "unknown path", start)
		return
	case epHealthz:
		if r.Method != http.MethodGet {
			s.respondError(w, ep, http.StatusMethodNotAllowed, "GET only", start)
			return
		}
		s.handleHealthz(w, start)
		return
	case epMetrics:
		if r.Method != http.MethodGet {
			s.respondError(w, ep, http.StatusMethodNotAllowed, "GET only", start)
			return
		}
		s.handleMetrics(w, start)
		return
	case epAdmin:
		if r.Method != http.MethodPost {
			s.respondError(w, ep, http.StatusMethodNotAllowed, "POST only", start)
			return
		}
		if s.draining.Load() {
			s.respondError(w, ep, http.StatusServiceUnavailable, "draining", start)
			return
		}
		s.handleReload(w, start)
		return
	}
	// /v1/* from here on. Observe ingests a body; the read-only
	// endpoints stay GET-only.
	if ep == epObserve {
		if r.Method != http.MethodPost {
			s.respondError(w, ep, http.StatusMethodNotAllowed, "POST only", start)
			return
		}
	} else if r.Method != http.MethodGet {
		s.respondError(w, ep, http.StatusMethodNotAllowed, "GET only", start)
		return
	}
	// Count in-flight before re-checking draining: Shutdown sets the
	// flag and then waits for the in-flight count to reach zero, so a
	// request is either counted (and drains) or sees the flag (and is
	// refused) — never dropped mid-flight.
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		s.respondError(w, ep, http.StatusServiceUnavailable, "draining", start)
		return
	}
	if s.maxInfl > 0 && n > s.maxInfl {
		s.met.eps[ep].shedQueue.Add(1)
		s.respondError(w, ep, http.StatusTooManyRequests, "shed: queue depth", start)
		return
	}
	if s.bucket != nil && !s.bucket.take(start) {
		s.met.eps[ep].shedRate.Add(1)
		s.respondError(w, ep, http.StatusTooManyRequests, "shed: rate limit", start)
		return
	}
	if hook := s.afterAdmit; hook != nil {
		//lint:ignore allocfree test-only admission hook, nil in production; the race/chaos tests install allocation-free counters
		hook(ep)
	}
	switch ep {
	case epPredict:
		s.handlePredict(w, r, start)
	case epRecommend:
		s.handleRecommend(w, r, start)
	case epExplain:
		s.handleExplain(w, r, start)
	case epObserve:
		s.handleObserve(w, r, start)
	}
}

// query is a request's parsed parameters, living in the scratch so
// parsing allocates nothing.
type query struct {
	model     string
	config    string
	gpu       string
	objective string
	pricing   string
	samples   int64
	batch     int64
	k         int
	maxk      int
	market    bool
	hasHourly bool
	hasTotal  bool

	hourlyBudget float64
	totalBudget  float64

	// chaosPanic is set only by chaosserve-tagged builds (the chaos
	// suite's live panic injection); production parse rejects the
	// parameter and nothing else writes the field.
	chaosPanic bool
}

// reset restores a query to the server's defaults.
//
//hot:path
func (q *query) reset(s *Server) *query {
	q.model, q.config, q.gpu = "", "", ""
	q.objective, q.pricing = "cost", "on-demand"
	q.samples = ceer.ImageNet.Samples
	q.batch = s.batch
	q.k = 0
	q.maxk = s.maxK
	q.market = false
	q.hasHourly, q.hasTotal = false, false
	q.hourlyBudget, q.totalBudget = 0, 0
	q.chaosPanic = false
	return q
}

// parse scans a raw query string ("a=b&c=d") by substring — no
// url.Values, no allocation for unescaped pairs (the common case) — and
// reads it as url.ParseQuery and Values.Get would: a pair holding ';'
// is rejected, keys unescape like values, and pairs are read right to
// left, so a repeated key keeps its first value (every value must still
// be valid, and the rightmost bad one is reported). It returns "" on
// success or a short diagnostic.
//
//hot:path
func (q *query) parse(raw string, maxK int) string {
	for len(raw) > 0 {
		pair := raw
		if i := strings.LastIndex(raw, "&"); i >= 0 {
			raw, pair = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		if pair == "" {
			continue
		}
		if strings.IndexByte(pair, ';') >= 0 {
			return "invalid semicolon separator in query"
		}
		key, val := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			key, val = pair[:i], pair[i+1:]
		}
		if strings.IndexByte(pair, '%') >= 0 || strings.IndexByte(pair, '+') >= 0 {
			//lint:ignore allocfree rare branch: only percent- or plus-escaped pairs unescape, and parameter and model/gpu names contain neither
			k, kerr := url.QueryUnescape(key) // rare: escaped pair (allocates)
			//lint:ignore allocfree the same rare branch, for the value
			v, verr := url.QueryUnescape(val)
			if kerr != nil || verr != nil {
				return "malformed query escape"
			}
			key, val = k, v
		}
		var err error
		switch key {
		case "model":
			q.model = val
		case "config":
			q.config = val
		case "gpu":
			q.gpu = val
		case "objective":
			if val != "cost" && val != "time" {
				return "objective must be cost or time"
			}
			q.objective = val
		case "pricing":
			switch val {
			case "on-demand":
				q.market = false
			case "market":
				q.market = true
			default:
				return "pricing must be on-demand or market"
			}
			q.pricing = val
		case "samples":
			q.samples, err = strconv.ParseInt(val, 10, 64)
			if err != nil || q.samples < 1 {
				return "samples must be a positive integer"
			}
		case "batch":
			q.batch, err = strconv.ParseInt(val, 10, 64)
			if err != nil || q.batch < 1 {
				return "batch must be a positive integer"
			}
		case "k":
			q.k, err = strconv.Atoi(val)
			if err != nil || q.k < 1 || q.k > maxK {
				return "k out of range"
			}
		case "maxk":
			q.maxk, err = strconv.Atoi(val)
			if err != nil || q.maxk < 1 || q.maxk > maxK {
				return "maxk out of range"
			}
		case "max_hourly_usd":
			q.hourlyBudget, err = strconv.ParseFloat(val, 64)
			if err != nil {
				return "max_hourly_usd must be a number"
			}
			q.hasHourly = true
		case "max_total_usd":
			q.totalBudget, err = strconv.ParseFloat(val, 64)
			if err != nil {
				return "max_total_usd must be a number"
			}
			q.hasTotal = true
		default:
			if !chaosQueryParam(q, key, val) {
				return "unknown parameter"
			}
		}
	}
	return ""
}

// findModel resolves a zoo model by name: a linear scan over the 12
// entries (cheaper than a map at this size, and map reads are banned on
// the marked hot path anyway).
//
//hot:path
func (s *Server) findModel(name string) *modelEntry {
	for i := range s.models {
		if s.models[i].name == name {
			return &s.models[i]
		}
	}
	return nil
}

// findCand resolves a "<k>x<family>" (or bare "<family>", k=1)
// configuration string against the precomputed candidate metadata,
// returning its index in the full candidate set or -1.
//
//hot:path
func (s *Server) findCand(val string) int {
	k, fam := 1, val
	if i := strings.IndexByte(val, 'x'); i > 0 {
		n, err := strconv.Atoi(val[:i])
		if err != nil {
			return -1
		}
		k, fam = n, val[i+1:]
	}
	metas := s.metaByK[s.maxK]
	for i := range metas {
		if metas[i].k == k && strings.EqualFold(metas[i].family, fam) {
			return i
		}
	}
	return -1
}

// overBudget reports whether a request has exhausted its compute
// budget (Options.RequestTimeout) — the allocation-free equivalent of
// a per-request context deadline (see DESIGN.md §13).
//
//hot:path
func (s *Server) overBudget(start int64) bool {
	//lint:ignore allocfree Clock is an interface for virtual-time tests; both implementations are allocation-free
	return s.budget > 0 && s.clock.Nanos()-start > s.budget
}

// finish sends a rendered hot response, downgrading to 504 if the
// request ran over budget.
//
//hot:path
func (s *Server) finish(w http.ResponseWriter, ep int, sc *scratch, start int64) {
	if s.overBudget(start) {
		s.met.eps[ep].timeouts.Add(1)
		s.respondError(w, ep, http.StatusGatewayTimeout, "deadline exceeded", start)
		return
	}
	s.reply(w, ep, http.StatusOK, sc.buf, start)
}

//hot:path
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, start int64) {
	sc := s.arena.get()
	defer s.arena.put(sc)
	if msg := sc.q.reset(s).parse(r.URL.RawQuery, s.maxK); msg != "" {
		s.respondError(w, epPredict, http.StatusBadRequest, msg, start)
		return
	}
	if sc.q.model == "" {
		s.respondError(w, epPredict, http.StatusBadRequest, "missing model parameter", start)
		return
	}
	me := s.findModel(sc.q.model)
	if me == nil {
		s.respondError(w, epPredict, http.StatusNotFound, "unknown model", start)
		return
	}
	chaosMaybePanic(&sc.q)
	cands := s.candsByK[sc.q.maxk]
	metas := s.metaByK[sc.q.maxk]
	if sc.q.config != "" {
		ci := s.findCand(sc.q.config)
		if ci < 0 {
			s.respondError(w, epPredict, http.StatusBadRequest, "unknown config", start)
			return
		}
		cands = s.candsByK[s.maxK][ci : ci+1]
		metas = s.metaByK[s.maxK][ci : ci+1]
	}
	status, msg := s.renderPredict(sc, me, cands, metas)
	if status != http.StatusOK {
		s.respondError(w, epPredict, status, msg, start)
		return
	}
	s.finish(w, epPredict, sc, start)
}

//hot:path
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request, start int64) {
	sc := s.arena.get()
	defer s.arena.put(sc)
	if msg := sc.q.reset(s).parse(r.URL.RawQuery, s.maxK); msg != "" {
		s.respondError(w, epRecommend, http.StatusBadRequest, msg, start)
		return
	}
	if sc.q.model == "" {
		s.respondError(w, epRecommend, http.StatusBadRequest, "missing model parameter", start)
		return
	}
	me := s.findModel(sc.q.model)
	if me == nil {
		s.respondError(w, epRecommend, http.StatusNotFound, "unknown model", start)
		return
	}
	status, msg := s.renderRecommend(sc, me, s.candsByK[sc.q.maxk], s.metaByK[sc.q.maxk])
	if status != http.StatusOK {
		s.respondError(w, epRecommend, status, msg, start)
		return
	}
	s.finish(w, epRecommend, sc, start)
}

//hot:path
func (s *Server) handleHealthz(w http.ResponseWriter, start int64) {
	sc := s.arena.get()
	defer s.arena.put(sc)
	s.renderHealthz(sc, start)
	s.reply(w, epHealthz, http.StatusOK, sc.buf, start)
}

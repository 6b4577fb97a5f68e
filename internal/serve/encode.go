package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"ceer"
)

// contentTypeJSON is the shared Content-Type header value; assigned by
// key so reply never canonicalizes or allocates. Handlers must never
// mutate it.
var contentTypeJSON = []string{"application/json"}

// reply writes a response and records its metrics. Exempt (the
// hot-path proof bans map writes, and the header is a map) but
// allocation-free: the header value slice is shared and the body is the
// caller's scratch.
//
//hot:exempt header-map write and ResponseWriter interface calls; allocation behaviour pinned by the serve benches
func (s *Server) reply(w http.ResponseWriter, ep, status int, body []byte, start int64) {
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		// The client is gone; all we can do is count it.
		s.met.eps[ep].writeErrors.Add(1)
	}
	s.met.observe(ep, status, s.clock.Nanos()-start)
}

// respondError writes an ErrorResponse-shaped body into an arena
// scratch, so refusals (404s, shed 429s, 504s) are as allocation-free
// as successes — load shedding that allocated under overload would
// defeat its purpose. A handler may already hold a scratch when this
// runs; the pool simply lends a second one.
//
//hot:exempt amortized append encoding into arena scratch; pinned by BenchmarkRespondError 0 allocs/op
func (s *Server) respondError(w http.ResponseWriter, ep, status int, msg string, start int64) {
	sc := s.arena.get()
	b := append(sc.buf[:0], `{"error":`...)
	b = appendJSONString(b, msg)
	b = append(b, '}', '\n')
	sc.buf = b
	s.reply(w, ep, status, sc.buf, start)
	s.arena.put(sc)
}

// appendPrediction appends a PredictionJSON object without its closing
// brace and without degraded (which a CandidateJSON places after score).
// It copies the candidate's head for the request's pricing and the
// generation's fragment f, and formats only the fields the query
// changes: iterations, total_s and cost_usd.
func appendPrediction(b []byte, m *candMeta, market bool, p *ceer.Prediction, f *fragment) []byte {
	b = append(b, m.head[pricingIndex(market)]...)
	b = appendJSONInt(b, p.Iterations)
	b = append(b, f.iter...)
	b = appendJSONFloat(b, p.TotalSeconds)
	b = append(b, `,"cost_usd":`...)
	b = appendJSONFloat(b, p.CostUSD)
	return append(b, f.unseen...)
}

// appendCandidate appends a CandidateJSON object (prediction fields
// inlined first, mirroring the embedded struct).
func appendCandidate(b []byte, m *candMeta, market bool, c *ceer.Candidate, f *fragment) []byte {
	b = appendPrediction(b, m, market, &c.Prediction, f)
	b = append(b, `,"feasible":`...)
	b = appendJSONBool(b, c.Feasible)
	b = append(b, `,"score":`...)
	b = appendJSONFloat(b, c.Score)
	b = append(b, f.degraded...)
	return append(b, '}')
}

// generationFor returns the generation that answers the request and
// the slot of the requested graph in it: the serving generation at the
// compiled batch size, or, at any other batch, a generation over the
// requested graph compiled alone from the serving generation's
// predictor (once per request, so it answers like a daemon compiled at
// that batch).
func (s *Server) generationFor(q *query, me *modelEntry) (*generation, int, error) {
	gen := s.cur.Load()
	if q.batch == s.batch {
		return gen, me.slot, nil
	}
	g, err := ceer.BuildModelCached(q.model, q.batch)
	if err != nil {
		return nil, 0, err
	}
	comp, err := gen.comp.ForGraph(g)
	if err != nil {
		return nil, 0, err
	}
	return s.newGeneration(comp, gen.num, []*ceer.Graph{g}), 0, nil
}

// renderPredict fills sc.buf with the /v1/predict document for the
// candidate set. Returns (200, "") or an error status and message.
// Requests at the compiled batch size gather from the hot tables; other
// batch sizes first compile the requested graph (cold, allocates).
//
//hot:exempt amortized append encoding plus a cold one-graph compile for non-default batches; hot-table math is proven via the //hot:path marks on the compiled predictor itself
func (s *Server) renderPredict(sc *scratch, me *modelEntry, cands []ceer.InstanceConfig, metas []candMeta) (int, string) {
	q := &sc.q
	ds := ceer.Dataset{Name: "request", Samples: q.samples}
	pricing := ceer.OnDemand
	if q.market {
		pricing = ceer.MarketRatio
	}
	gen, slot, err := s.generationFor(q, me)
	if err != nil {
		return http.StatusBadRequest, err.Error()
	}
	g := gen.graphs[slot]

	b := sc.buf[:0]
	b = append(b, '{')
	b = appendKey(b, true, "cnn")
	b = appendJSONString(b, q.model)
	b = appendKey(b, false, "batch")
	b = appendJSONInt(b, q.batch)
	b = appendKey(b, false, "samples")
	b = appendJSONInt(b, q.samples)
	b = appendKey(b, false, "pricing")
	b = appendJSONString(b, q.pricing)
	b = appendKey(b, false, "predictions")
	b = append(b, '[')
	for i := range cands {
		c, err := gen.comp.PredictCandidate(g, cands[i], ds, pricing)
		if err == nil && q.config != "" && !c.Feasible {
			// A sweep answers a degraded device without its comm model
			// the way Recommend does; a named configuration still needs
			// its full prediction, and the error says why it has none.
			_, err = gen.comp.PredictTraining(g, cands[i], ds, pricing)
		}
		if err != nil {
			return http.StatusBadRequest, err.Error()
		}
		if i > 0 {
			b = append(b, ',')
		}
		f := &gen.frags[slot][metas[i].full]
		b = appendPrediction(b, &metas[i], q.market, &c.Prediction, f)
		b = append(b, f.degraded...)
		b = append(b, '}')
	}
	b = append(b, ']', '}', '\n')
	sc.buf = b
	return http.StatusOK, ""
}

// renderRecommend fills sc.buf with the /v1/recommend document:
// RecommendInto writes into the scratch's reused candidate slice, then
// the document is appended candidate by candidate (metas parallel the
// candidate order).
//
//hot:exempt amortized append encoding plus a cold one-graph compile for non-default batches; hot-table math is proven via the //hot:path marks on the compiled predictor itself
func (s *Server) renderRecommend(sc *scratch, me *modelEntry, cands []ceer.InstanceConfig, metas []candMeta) (int, string) {
	q := &sc.q
	ds := ceer.Dataset{Name: "request", Samples: q.samples}
	pricing := ceer.OnDemand
	if q.market {
		pricing = ceer.MarketRatio
	}
	obj := ceer.MinimizeCost
	if q.objective == "time" {
		obj = ceer.MinimizeTime
	}
	gen, slot, err := s.generationFor(q, me)
	if err != nil {
		return http.StatusBadRequest, err.Error()
	}
	if err := gen.comp.RecommendInto(&sc.rec, gen.graphs[slot], ds, pricing, cands, obj, sc.constraints()...); err != nil {
		return http.StatusBadRequest, err.Error()
	}

	rec := &sc.rec
	bi := -1
	for i := range rec.Candidates {
		if rec.Candidates[i].Cfg == rec.Best.Cfg {
			bi = i
			break
		}
	}
	if bi < 0 {
		return http.StatusInternalServerError, "recommendation lost its best candidate"
	}
	frags := gen.frags[slot]
	b := sc.buf[:0]
	b = append(b, '{')
	b = appendKey(b, true, "cnn")
	b = appendJSONString(b, q.model)
	b = appendKey(b, false, "objective")
	b = appendJSONString(b, q.objective)
	b = appendKey(b, false, "batch")
	b = appendJSONInt(b, q.batch)
	b = appendKey(b, false, "samples")
	b = appendJSONInt(b, q.samples)
	b = appendKey(b, false, "pricing")
	b = appendJSONString(b, q.pricing)
	b = appendKey(b, false, "best")
	b = appendCandidate(b, &metas[bi], q.market, &rec.Best, &frags[metas[bi].full])
	b = appendKey(b, false, "candidates")
	b = append(b, '[')
	for i := range rec.Candidates {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCandidate(b, &metas[i], q.market, &rec.Candidates[i], &frags[metas[i].full])
	}
	b = append(b, ']', '}', '\n')
	sc.buf = b
	return http.StatusOK, ""
}

// renderHealthz fills sc.buf with the /healthz document; status is the
// health state machine value at now.
//
//hot:exempt amortized append encoding into arena scratch; pinned by the healthz bench gate
func (s *Server) renderHealthz(sc *scratch, now int64) {
	b := sc.buf[:0]
	b = append(b, '{')
	b = appendKey(b, true, "status")
	b = appendJSONString(b, s.healthState(now))
	b = appendKey(b, false, "generation")
	b = appendJSONInt(b, int64(s.Generation()))
	b = appendKey(b, false, "models")
	b = appendJSONInt(b, int64(len(s.models)))
	b = appendKey(b, false, "devices")
	b = appendJSONInt(b, int64(len(s.metaByK[1])))
	b = appendKey(b, false, "batch")
	b = appendJSONInt(b, s.batch)
	b = appendKey(b, false, "max_k")
	b = appendJSONInt(b, int64(s.maxK))
	b = appendKey(b, false, "panics")
	b = appendJSONInt(b, int64(s.met.srv.panics.Load()))
	b = appendKey(b, false, "reload_rejected")
	b = appendJSONInt(b, int64(s.met.srv.reloadRejected.Load()))
	b = appendKey(b, false, "drifted_cells")
	b = appendJSONInt(b, s.met.srv.driftedCells.Load())
	b = append(b, '}', '\n')
	sc.buf = b
}

// handleExplain is the /v1/explain cold path: per-op-type attribution
// read from the serving tables, marshaled with encoding/json.
//
//hot:exempt cold diagnostic endpoint; allocates by design
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, start int64) {
	var q query
	if msg := q.reset(s).parse(r.URL.RawQuery, s.maxK); msg != "" {
		s.respondError(w, epExplain, http.StatusBadRequest, msg, start)
		return
	}
	if q.model == "" || q.gpu == "" {
		s.respondError(w, epExplain, http.StatusBadRequest, "missing model or gpu parameter", start)
		return
	}
	me := s.findModel(q.model)
	if me == nil {
		s.respondError(w, epExplain, http.StatusNotFound, "unknown model", start)
		return
	}
	known := false
	for i := range s.metaByK[1] {
		if s.metaByK[1][i].gpu == q.gpu {
			known = true
			break
		}
	}
	if !known {
		s.respondError(w, epExplain, http.StatusNotFound, "unknown gpu", start)
		return
	}
	k := q.k
	if k == 0 {
		k = 1
	}
	ex, err := s.Tables().ExplainIteration(me.g, ceer.GPUModel(q.gpu), k)
	if err != nil {
		s.respondError(w, epExplain, http.StatusBadRequest, err.Error(), start)
		return
	}
	resp := ExplainResponse{
		CNN:       q.model,
		GPU:       q.gpu,
		K:         k,
		HeavyS:    ex.Iter.HeavySeconds,
		LightS:    ex.Iter.LightSeconds,
		CPUS:      ex.Iter.CPUSeconds,
		CommS:     ex.Iter.CommSeconds,
		IterS:     ex.Iter.PerIterSeconds,
		CommShare: ex.CommShare,
		Degraded:  ex.Degraded,
	}
	for _, t := range ex.Iter.UnseenHeavy {
		resp.UnseenHeavy = append(resp.UnseenHeavy, string(t))
	}
	for _, c := range ex.Contributions {
		resp.Contributions = append(resp.Contributions, ContributionJSON{
			Op:      string(c.OpType),
			Class:   c.Class.String(),
			Count:   c.Count,
			Seconds: c.Seconds,
			Share:   c.Share,
		})
	}
	s.replyJSON(w, epExplain, http.StatusOK, resp, start)
}

// handleMetrics snapshots the atomics into the /metrics document.
//
//hot:exempt cold diagnostic endpoint; allocates by design
func (s *Server) handleMetrics(w http.ResponseWriter, start int64) {
	snap := MetricsSnapshot{
		UptimeSeconds: float64(s.clock.Nanos()-s.startNs) / 1e9,
		Generation:    s.Generation(),
		State:         s.healthState(start),
		Draining:      s.draining.Load(),
		Server:        s.met.srv.snapshot(),
		Endpoints:     s.met.snapshot(),
	}
	if c := s.lastReloadCause.Load(); c != nil {
		snap.Server.LastReloadCause = *c
	}
	s.replyJSON(w, epMetrics, http.StatusOK, snap, start)
}

// handleReload is POST /admin/reload: re-read the model file, validate,
// and swap — or reject. A rejected swap is 422 with the typed cause (the
// daemon is healthy and still serving the old generation; the *file* is
// unprocessable); a daemon with no model path at all is 409.
//
//hot:exempt cold admin endpoint; reload allocates a whole new generation by design
func (s *Server) handleReload(w http.ResponseWriter, start int64) {
	gen, err := s.Reload()
	if err != nil {
		var re *ReloadError
		if errors.As(err, &re) {
			s.replyJSON(w, epAdmin, http.StatusUnprocessableEntity, ReloadResponse{
				Status:     "rejected",
				Generation: s.Generation(),
				Cause:      re.Cause,
				Error:      re.Err.Error(),
			}, start)
			return
		}
		s.respondError(w, epAdmin, http.StatusConflict, err.Error(), start)
		return
	}
	s.replyJSON(w, epAdmin, http.StatusOK, ReloadResponse{Status: "reloaded", Generation: gen}, start)
}

// replyJSON marshals a cold-path document with encoding/json.
func (s *Server) replyJSON(w http.ResponseWriter, ep, status int, v any, start int64) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		s.respondError(w, ep, http.StatusInternalServerError, err.Error(), start)
		return
	}
	s.reply(w, ep, status, append(b, '\n'), start)
}

package serve

import "ceer"

// generation is one published model generation: the compiled tables,
// their number, and every response byte that is a pure function of the
// tables, rendered once so a request formats only what its query
// changes. It is immutable once built. The server publishes it with a
// single atomic store, so whatever loads it reads tables, number and
// bytes that belong together.
type generation struct {
	comp *ceer.CompiledSystem
	num  uint64
	// graphs lists the graphs the fragments cover, by slot: the zoo
	// models in Server.models order, or the one graph a non-default
	// batch request compiles.
	graphs []*ceer.Graph
	// frags[slot][ci] is graph slot's fragment for candidate ci of the
	// full candidate set.
	frags [][]fragment
}

// fragment is one (graph, candidate) prediction's table-derived bytes,
// in response order.
type fragment struct {
	// iter is `,"heavy_s":…,"iter_s":…,"total_s":`, everything between
	// the iterations and total_s values.
	iter []byte
	// unseen is `,"unseen_heavy":[…]`, empty when every heavy op of the
	// graph has a model on the device.
	unseen []byte
	// degraded is `,"degraded":"…"`, empty on a cleanly covered device.
	degraded []byte
	// total is total_s, or noTotal where the cell failed: probe baseline.
	total float64
}

// newGeneration renders generation num of comp over graphs, predicting
// each cell once as a request does (PredictCandidate), so a degraded
// device without a comm model gets its NoComm bytes. A cell that call
// rejects keeps an empty fragment and noTotal: on-demand prices exist
// for every candidate, so its requests all meet that error first. A
// base (the serving generation) makes the pass a swap's golden probe.
func (s *Server) newGeneration(comp *ceer.CompiledSystem, num uint64, graphs []*ceer.Graph, base *generation) (*generation, error) {
	cands := s.candsByK[s.maxK]
	gen := &generation{comp: comp, num: num, graphs: graphs, frags: make([][]fragment, len(graphs))}
	for slot, g := range graphs {
		gen.frags[slot] = make([]fragment, len(cands))
		for ci, cfg := range cands {
			cand, err := comp.PredictCandidate(g, cfg, ceer.ImageNet, ceer.OnDemand)
			if base != nil {
				if perr := s.probeCell(slot, ci, cand, err, base.frags[slot][ci].total); perr != nil {
					return nil, perr
				}
			}
			if err != nil {
				gen.frags[slot][ci].total = noTotal
				continue
			}
			it := &cand.Iter
			b := appendJSONFloat(append(make([]byte, 0, 256), `,"heavy_s":`...), it.HeavySeconds)
			b = appendJSONFloat(append(b, `,"light_s":`...), it.LightSeconds)
			b = appendJSONFloat(append(b, `,"cpu_s":`...), it.CPUSeconds)
			b = appendJSONFloat(append(b, `,"comm_s":`...), it.CommSeconds)
			b = appendJSONFloat(append(b, `,"iter_s":`...), it.PerIterSeconds)
			b = append(b, `,"total_s":`...)
			iterEnd := len(b)
			if len(it.UnseenHeavy) > 0 {
				b = append(b, `,"unseen_heavy":[`...)
				for i, t := range it.UnseenHeavy {
					if i > 0 {
						b = append(b, ',')
					}
					b = appendJSONString(b, string(t))
				}
				b = append(b, ']')
			}
			unseenEnd := len(b)
			if cand.Degraded != "" {
				b = appendJSONString(append(b, `,"degraded":`...), cand.Degraded)
			}
			gen.frags[slot][ci] = fragment{iter: b[:iterEnd:iterEnd], unseen: b[iterEnd:unseenEnd:unseenEnd], degraded: b[unseenEnd:], total: cand.TotalSeconds}
		}
	}
	return gen, nil
}

// pricingIndex maps a request's pricing scheme to its candMeta.head.
func pricingIndex(market bool) int {
	if market {
		return 1
	}
	return 0
}

// newCandMeta renders the fixed strings and per-pricing heads of the
// candidate at index full of the full candidate set.
func newCandMeta(cfg ceer.InstanceConfig, full int) candMeta {
	m := candMeta{config: cfg.String(), gpu: string(cfg.GPU), family: cfg.GPU.Family(), k: cfg.K, full: full}
	for _, p := range []ceer.Pricing{ceer.OnDemand, ceer.MarketRatio} {
		hourly, err := ceer.HourlyCost(cfg, p)
		if err != nil {
			continue
		}
		b := appendJSONString(append([]byte(nil), `{"config":`...), m.config)
		b = appendJSONString(append(b, `,"instance":`...), cfg.InstanceName())
		b = appendJSONString(append(b, `,"gpu":`...), m.gpu)
		b = appendJSONInt(append(b, `,"k":`...), int64(m.k))
		b = appendJSONFloat(append(b, `,"hourly_usd":`...), hourly)
		m.head[pricingIndex(p == ceer.MarketRatio)] = append(b, `,"iterations":`...)
	}
	return m
}

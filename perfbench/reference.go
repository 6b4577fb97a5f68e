package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"ceer"
	"ceer/internal/serve"
	"ceer/internal/serve/loadgen"
	"ceer/internal/zoo"
)

// reference is the in-process twin of the daemon: the same model file
// loaded into a serve.Server. It supplies the expected body of every
// query (Server.DoLocal) and, in traced runs, times the handler
// (Server.ServeHTTP) and the compiled gather of a request.
type reference struct {
	srv    *serve.Server
	comp   *ceer.CompiledSystem
	target *loadgen.HandlerTarget
	calls  []*call // parallel to the op stream
}

// call is one distinct query, resolved once before any timing.
type call struct {
	kind  string
	span  string // root span name, "request.<kind>"
	req   *http.Request
	want  uint64 // FNV-64a of the DoLocal body
	wantN int

	g       *ceer.Graph
	cands   []ceer.InstanceConfig
	pricing ceer.Pricing
	obj     ceer.Objective // nil for predict
}

var requestDataset = ceer.Dataset{Name: "request", Samples: ceer.ImageNet.Samples}

func newReference(modelPath string, ops []loadgen.Op) (*reference, error) {
	sys, err := ceer.LoadFile(modelPath)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(sys, serve.Options{})
	if err != nil {
		return nil, err
	}
	comp, err := sys.Compiled(zoo.DefaultBatch)
	if err != nil {
		return nil, err
	}
	r := &reference{srv: srv, comp: comp, target: loadgen.NewHandlerTarget(srv)}
	byQuery := make(map[string]*call)
	for _, op := range ops {
		key := op.Path + "?" + op.RawQuery
		c, ok := byQuery[key]
		if !ok {
			if c, err = r.resolve(op); err != nil {
				return nil, err
			}
			byQuery[key] = c
		}
		r.calls = append(r.calls, c)
	}
	return r, nil
}

func (r *reference) resolve(op loadgen.Op) (*call, error) {
	c := &call{kind: kindOf(op), span: "request." + kindOf(op), req: loadgen.Prepare([]loadgen.Op{op})[0], pricing: ceer.OnDemand}
	status, body := r.srv.DoLocal(op.Method, op.Path, op.RawQuery)
	if status != http.StatusOK {
		return nil, fmt.Errorf("reference %s?%s: status %d: %s", op.Path, op.RawQuery, status, body)
	}
	c.want, c.wantN = bodyHash(body), len(body)
	c.cands = ceer.AllConfigs(4)
	if c.kind == kindRecommend {
		c.obj = ceer.MinimizeCost
	}
	for _, kv := range strings.Split(op.RawQuery, "&") {
		k, v, _ := strings.Cut(kv, "=")
		switch k {
		case "model":
			g, err := ceer.BuildModelCached(v, zoo.DefaultBatch)
			if err != nil {
				return nil, err
			}
			c.g = g
		case "pricing":
			if v == "market" {
				c.pricing = ceer.MarketRatio
			}
		case "objective":
			if v == "time" {
				c.obj = ceer.MinimizeTime
			}
		case "config":
			n, fam, _ := strings.Cut(v, "x")
			k, err := strconv.Atoi(n)
			if err != nil {
				return nil, fmt.Errorf("config %q: %w", v, err)
			}
			cfg, err := ceer.Config(fam, k)
			if err != nil {
				return nil, err
			}
			c.cands = []ceer.InstanceConfig{cfg}
		}
	}
	return c, nil
}

// gather runs the compiled-table work of one request — what the handler
// calls between parsing and encoding — with rec as reused scratch.
func (r *reference) gather(c *call, rec *ceer.Recommendation) error {
	if c.obj != nil {
		return r.comp.RecommendInto(rec, c.g, requestDataset, c.pricing, c.cands, c.obj)
	}
	for _, cfg := range c.cands {
		if _, err := r.comp.PredictTraining(c.g, cfg, requestDataset, c.pricing); err != nil {
			return err
		}
	}
	return nil
}

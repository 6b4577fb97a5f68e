package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"

	"ceer"
)

// The degraded test system: the shared campaign with every m60 cell
// failing, so G3 trains on partial coverage and has no comm models.
var (
	degOnce sync.Once
	degVal  *ceer.System
	degErr  error
)

func degradedSystem(t testing.TB) *ceer.System {
	t.Helper()
	degOnce.Do(func() {
		degVal, degErr = ceer.Train(ceer.TrainOptions{
			Seed: 11, ProfileIterations: 30, CommIterations: 8,
			Faults: &ceer.FaultSpec{Seed: 5, PermanentDevices: []string{"m60"}},
		})
	})
	if degErr != nil {
		t.Fatalf("training degraded test system: %v", degErr)
	}
	return degVal
}

// predictionJSON fills the schema struct of one prediction.
func predictionJSON(p *ceer.Prediction, degraded string) PredictionJSON {
	pj := PredictionJSON{
		Config: p.Cfg.String(), Instance: p.Cfg.InstanceName(), GPU: string(p.Cfg.GPU), K: p.Cfg.K,
		HourlyUSD: p.HourlyUSD, Iterations: p.Iterations,
		HeavyS: p.Iter.HeavySeconds, LightS: p.Iter.LightSeconds, CPUS: p.Iter.CPUSeconds,
		CommS: p.Iter.CommSeconds, IterS: p.Iter.PerIterSeconds,
		TotalS: p.TotalSeconds, CostUSD: p.CostUSD, Degraded: degraded,
	}
	for _, u := range p.Iter.UnseenHeavy {
		pj.UnseenHeavy = append(pj.UnseenHeavy, string(u))
	}
	return pj
}

// candidateJSON fills the schema struct of one recommendation candidate.
func candidateJSON(c *ceer.Candidate) CandidateJSON {
	return CandidateJSON{PredictionJSON: predictionJSON(&c.Prediction, ""), Feasible: c.Feasible, Score: c.Score, Degraded: c.Degraded}
}

// wantBody is encoding/json's rendering of v as a hot endpoint body,
// or of the ErrorResponse for err.
func wantBody(t *testing.T, v any, err error) (int, []byte) {
	t.Helper()
	status := http.StatusOK
	if err != nil {
		status, v = http.StatusBadRequest, ErrorResponse{Error: err.Error()}
	}
	b, merr := json.Marshal(v)
	if merr != nil {
		t.Fatal(merr)
	}
	return status, append(b, '\n')
}

// bodyOracle computes expected /v1/predict and /v1/recommend bodies
// from the CompiledSystem API and encoding/json, independently of the
// daemon's generations and encoder.
type bodyOracle struct {
	sys  *ceer.System
	comp *ceer.CompiledSystem
	// commFallbacks counts sweep entries answered without their comm
	// term, so the degraded case proves it exercised the fallback.
	commFallbacks int
}

func (o *bodyOracle) predict(t *testing.T, g *ceer.Graph, cands []ceer.InstanceConfig, single bool,
	samples int64, pricing ceer.Pricing, pricingName string) (int, []byte) {
	t.Helper()
	ds := ceer.NewDataset("request", samples)
	doc := PredictResponse{CNN: g.Name, Batch: g.BatchSize, Samples: samples, Pricing: pricingName}
	for _, cfg := range cands {
		reason, _ := o.sys.Predictor().Degraded(cfg.GPU)
		p, err := o.comp.PredictTraining(g, cfg, ds, pricing)
		if err != nil && reason != "" && !single {
			// A sweep answers a degraded device that lacks its comm
			// model the way Recommend does: without the comm term.
			o.commFallbacks++
			p, err = o.comp.PredictTrainingVariant(g, cfg, ds, pricing, ceer.NoComm)
		}
		if err != nil {
			return wantBody(t, nil, err)
		}
		doc.Predictions = append(doc.Predictions, predictionJSON(&p, reason))
	}
	return wantBody(t, doc, nil)
}

func (o *bodyOracle) recommend(t *testing.T, g *ceer.Graph, cands []ceer.InstanceConfig, samples int64,
	pricing ceer.Pricing, pricingName, objective string, cons []ceer.Constraint) (int, []byte) {
	t.Helper()
	obj := ceer.MinimizeCost
	if objective == "time" {
		obj = ceer.MinimizeTime
	}
	rec, err := o.comp.Recommend(g, ceer.NewDataset("request", samples), pricing, cands, obj, cons...)
	if err != nil {
		return wantBody(t, nil, err)
	}
	doc := RecommendResponse{CNN: g.Name, Objective: objective, Batch: g.BatchSize, Samples: samples,
		Pricing: pricingName, Best: candidateJSON(&rec.Best)}
	for i := range rec.Candidates {
		doc.Candidates = append(doc.Candidates, candidateJSON(&rec.Candidates[i]))
	}
	return wantBody(t, doc, nil)
}

// TestResponsesMatchEncodingJSON: every /v1/predict and /v1/recommend
// body equals encoding/json of the response structs filled from the
// CompiledSystem API, over every zoo model × {full sweep at maxk 1–4,
// each single config} × pricing × samples, and for recommend × maxk ×
// objective × budgets (none, hourly, total, both, unsatisfiable). It
// runs at the serving batch, at a non-default batch (answered from a
// per-request generation), and on a predictor whose degraded device
// lacks its comm models.
func TestResponsesMatchEncodingJSON(t *testing.T) {
	for _, c := range []struct {
		name  string
		sys   func(testing.TB) *ceer.System
		batch int64
	}{
		{"serving-batch", testSystem, 32},
		{"batch-64", testSystem, 64},
		{"degraded", degradedSystem, 32},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := c.sys(t)
			s, err := New(sys, Options{})
			if err != nil {
				t.Fatal(err)
			}
			comp, err := sys.Compiled(c.batch)
			if err != nil {
				t.Fatal(err)
			}
			o := &bodyOracle{sys: sys, comp: comp}
			n := checkBodyGrid(t, s, o, c.batch)
			t.Logf("%d bodies, %d sweep entries without comm", n, o.commFallbacks)
			if c.name == "degraded" && o.commFallbacks == 0 {
				t.Error("degraded predictor never exercised the missing-comm fallback")
			}
		})
	}
}

func checkBodyGrid(t *testing.T, s *Server, o *bodyOracle, batch int64) int {
	t.Helper()
	n := 0
	check := func(path, q string, wantStatus int, want []byte) {
		t.Helper()
		n++
		status, body := s.DoLocal(http.MethodGet, path, q)
		if status != wantStatus || !bytes.Equal(body, want) {
			t.Fatalf("GET %s?%s: status %d\n got: %s\nwant %d: %s", path, q, status, body, wantStatus, want)
		}
	}
	budgets := []struct {
		q    string
		cons []ceer.Constraint
	}{
		{"", nil},
		{"&max_hourly_usd=5", []ceer.Constraint{ceer.MaxHourlyBudget(5, 0)}},
		{"&max_total_usd=50", []ceer.Constraint{ceer.MaxTotalBudget(50)}},
		{"&max_hourly_usd=5&max_total_usd=50", []ceer.Constraint{ceer.MaxHourlyBudget(5, 0), ceer.MaxTotalBudget(50)}},
		{"&max_total_usd=0", []ceer.Constraint{ceer.MaxTotalBudget(0)}},
	}
	for _, model := range ceer.Models() {
		g, err := ceer.BuildModelCached(model, batch)
		if err != nil {
			t.Fatal(err)
		}
		base := "model=" + model
		if batch != s.batch {
			base += fmt.Sprintf("&batch=%d", batch)
		}
		for _, pr := range []struct {
			q, name string
			p       ceer.Pricing
		}{{"", "on-demand", ceer.OnDemand}, {"&pricing=market", "market", ceer.MarketRatio}} {
			for _, samples := range []int64{ceer.ImageNet.Samples, 1, 977, 1e9} {
				q := base + pr.q
				if samples != ceer.ImageNet.Samples {
					q += fmt.Sprintf("&samples=%d", samples)
				}
				for maxk := 1; maxk <= 4; maxk++ {
					cands := ceer.AllConfigs(maxk)
					mq := fmt.Sprintf("%s&maxk=%d", q, maxk)
					status, want := o.predict(t, g, cands, false, samples, pr.p, pr.name)
					check("/v1/predict", mq, status, want)
					for _, obj := range []string{"cost", "time"} {
						for _, b := range budgets {
							status, want := o.recommend(t, g, cands, samples, pr.p, pr.name, obj, b.cons)
							check("/v1/recommend", mq+"&objective="+obj+b.q, status, want)
						}
					}
				}
				for _, cfg := range ceer.AllConfigs(4) {
					status, want := o.predict(t, g, []ceer.InstanceConfig{cfg}, true, samples, pr.p, pr.name)
					check("/v1/predict", q+"&config="+cfg.String(), status, want)
				}
			}
		}
	}
	return n
}

// TestDegradedSweep: on a predictor whose degraded device lacks comm
// models, a full /v1/predict sweep answers 200 with that device's
// entries predicted without the comm term and carrying its reason,
// while a config= naming such a candidate stays a 400.
func TestDegradedSweep(t *testing.T) {
	sys := degradedSystem(t)
	reason, ok := sys.Predictor().Degraded(ceer.GPUModel("m60"))
	if !ok {
		t.Fatal("m60 not degraded under a permanent-device fault")
	}
	s, err := New(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range ceer.Models() {
		m := getJSON(t, s, "/v1/predict", "model="+model, http.StatusOK)
		g3 := 0
		for _, p := range m["predictions"].([]any) {
			p := p.(map[string]any)
			if !strings.HasSuffix(p["config"].(string), "G3") {
				if _, has := p["degraded"]; has {
					t.Errorf("%s %s: clean device carries degraded", model, p["config"])
				}
				continue
			}
			g3++
			if p["degraded"] != reason || !jsonNumExact(p["comm_s"], 0) {
				t.Errorf("%s %s: degraded %v comm_s %v, want reason %q and no comm term", model, p["config"], p["degraded"], p["comm_s"], reason)
			}
		}
		if g3 != 4 {
			t.Errorf("%s: %d G3 entries, want 4", model, g3)
		}
		status, body := s.DoLocal(http.MethodGet, "/v1/predict", "model="+model+"&config=1xG3")
		if status != http.StatusBadRequest || !bytes.Contains(body, []byte("no communication model")) {
			t.Errorf("%s config=1xG3: status %d %s, want 400 naming the missing comm model", model, status, body)
		}
	}
}

// TestReloadDegradedModel: the golden probe predicts each candidate as
// a sweep answers it, so a model file whose degraded device lacks comm
// models reloads instead of failing the probe.
func TestReloadDegradedModel(t *testing.T) {
	path := t.TempDir() + "/models.json"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := degradedSystem(t).Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sys, err := ceer.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sys, Options{ModelPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if gen, err := s.Reload(); err != nil || gen != 1 {
		t.Fatalf("reload of the served degraded model: generation %d, %v", gen, err)
	}
}

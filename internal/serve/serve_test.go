package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ceer"
)

// Shared trained system: training is seconds even at reduced depth, so
// every test in the package reuses one campaign.
var (
	sysOnce sync.Once
	sysVal  *ceer.System
	sysErr  error
)

func testSystem(t testing.TB) *ceer.System {
	t.Helper()
	sysOnce.Do(func() {
		sysVal, sysErr = ceer.Train(ceer.TrainOptions{Seed: 11, ProfileIterations: 30, CommIterations: 8})
	})
	if sysErr != nil {
		t.Fatalf("training test system: %v", sysErr)
	}
	return sysVal
}

func newTestServer(t testing.TB, opts Options) *Server {
	t.Helper()
	s, err := New(testSystem(t), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// vClock is a manually-advanced test clock (safe for concurrent reads).
type vClock struct{ ns atomic.Int64 }

func (c *vClock) Nanos() int64    { return c.ns.Load() }
func (c *vClock) advance(d int64) { c.ns.Add(d) }
func (c *vClock) set(ns int64)    { c.ns.Store(ns) }

// stepClock advances by a fixed step on every read (serial tests only):
// any handler that reads the clock twice appears to burn step nanos.
type stepClock struct{ ns, step int64 }

func (c *stepClock) Nanos() int64 { c.ns += c.step; return c.ns }

func getJSON(t *testing.T, s *Server, path, rawQuery string, wantStatus int) map[string]any {
	t.Helper()
	status, body := s.DoLocal(http.MethodGet, path, rawQuery)
	if status != wantStatus {
		t.Fatalf("GET %s?%s: status %d (want %d): %s", path, rawQuery, status, wantStatus, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s?%s: invalid JSON: %v\n%s", path, rawQuery, err, body)
	}
	return m
}

func TestPredictEndpointMatchesSystem(t *testing.T) {
	sys := testSystem(t)
	s := newTestServer(t, Options{})

	// Build the expected document through the public System API and
	// encoding/json; the daemon's append-encoded body must byte-match.
	g, err := ceer.BuildModelCached("resnet-50", 32)
	if err != nil {
		t.Fatal(err)
	}
	ds := ceer.NewDataset("request", ceer.ImageNet.Samples)
	want := PredictResponse{CNN: "resnet-50", Batch: 32, Samples: ds.Samples, Pricing: "on-demand"}
	cands := ceer.AllConfigs(4)
	for _, cfg := range cands {
		p, err := sys.PredictTraining(g, cfg, ds, ceer.OnDemand)
		if err != nil {
			t.Fatal(err)
		}
		pj := PredictionJSON{
			Config: cfg.String(), Instance: cfg.InstanceName(), GPU: string(cfg.GPU), K: cfg.K,
			HourlyUSD: p.HourlyUSD, Iterations: p.Iterations,
			HeavyS: p.Iter.HeavySeconds, LightS: p.Iter.LightSeconds, CPUS: p.Iter.CPUSeconds,
			CommS: p.Iter.CommSeconds, IterS: p.Iter.PerIterSeconds,
			TotalS: p.TotalSeconds, CostUSD: p.CostUSD,
		}
		for _, u := range p.Iter.UnseenHeavy {
			pj.UnseenHeavy = append(pj.UnseenHeavy, string(u))
		}
		want.Predictions = append(want.Predictions, pj)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	status, body := s.DoLocal(http.MethodGet, "/v1/predict", "model=resnet-50")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if got := strings.TrimSuffix(string(body), "\n"); got != string(wantJSON) {
		t.Errorf("predict body diverges from encoding/json over the System API\n got: %s\nwant: %s", got, wantJSON)
	}
}

func TestPredictSingleConfigAndParams(t *testing.T) {
	s := newTestServer(t, Options{})
	m := getJSON(t, s, "/v1/predict", "model=inception-v3&config=2xP3&samples=6400&pricing=market", http.StatusOK)
	preds := m["predictions"].([]any)
	if len(preds) != 1 {
		t.Fatalf("want 1 prediction, got %d", len(preds))
	}
	p := preds[0].(map[string]any)
	if p["config"] != "2xP3" || !jsonNumExact(p["k"], 2) || p["gpu"] != "v100" {
		t.Errorf("wrong candidate: %v", p)
	}
	if m["pricing"] != "market" || !jsonNumExact(m["samples"], 6400) {
		t.Errorf("params not honored: %v", m)
	}
}

func TestPredictColdBatchFallback(t *testing.T) {
	sys := testSystem(t)
	s := newTestServer(t, Options{})
	m := getJSON(t, s, "/v1/predict", "model=alexnet&batch=64&config=1xP2", http.StatusOK)
	preds := m["predictions"].([]any)
	p := preds[0].(map[string]any)

	g, err := ceer.BuildModelCached("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ceer.Config("P2", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.PredictTraining(g, cfg, ceer.NewDataset("request", ceer.ImageNet.Samples), ceer.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if !jsonNumExact(p["total_s"], want.TotalSeconds) {
		t.Errorf("cold-batch total_s = %v, want %v", p["total_s"], want.TotalSeconds)
	}
}

func TestRecommendEndpoint(t *testing.T) {
	sys := testSystem(t)
	s := newTestServer(t, Options{})
	m := getJSON(t, s, "/v1/recommend", "model=vgg-16&objective=time&max_hourly_usd=40", http.StatusOK)

	g, err := ceer.BuildModelCached("vgg-16", 32)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sys.Recommend(g, ceer.NewDataset("request", ceer.ImageNet.Samples), ceer.OnDemand,
		ceer.AllConfigs(4), ceer.MinimizeTime, ceer.MaxHourlyBudget(40, 0))
	if err != nil {
		t.Fatal(err)
	}
	best := m["best"].(map[string]any)
	if best["config"] != rec.Best.Cfg.String() {
		t.Errorf("best = %v, want %s", best["config"], rec.Best.Cfg)
	}
	if n := len(m["candidates"].([]any)); n != len(rec.Candidates) {
		t.Errorf("candidates = %d, want %d", n, len(rec.Candidates))
	}
	if m["objective"] != "time" {
		t.Errorf("objective echoed as %v", m["objective"])
	}
	// Infeasible candidates must be present and flagged.
	sawInfeasible := false
	for _, c := range m["candidates"].([]any) {
		if c.(map[string]any)["feasible"] == false {
			sawInfeasible = true
		}
	}
	wantInfeasible := false
	for _, c := range rec.Candidates {
		if !c.Feasible {
			wantInfeasible = true
		}
	}
	if sawInfeasible != wantInfeasible {
		t.Errorf("infeasible flagging diverges: got %v want %v", sawInfeasible, wantInfeasible)
	}
}

func TestRecommendMatchesEncodingJSON(t *testing.T) {
	sys := testSystem(t)
	s := newTestServer(t, Options{})
	status, body := s.DoLocal(http.MethodGet, "/v1/recommend", "model=resnet-101&objective=cost")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}

	g, err := ceer.BuildModelCached("resnet-101", 32)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sys.Recommend(g, ceer.NewDataset("request", ceer.ImageNet.Samples), ceer.OnDemand,
		ceer.AllConfigs(4), ceer.MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	toJSON := func(cfg ceer.InstanceConfig, c *ceer.Candidate) CandidateJSON {
		cj := CandidateJSON{
			PredictionJSON: PredictionJSON{
				Config: cfg.String(), Instance: cfg.InstanceName(), GPU: string(cfg.GPU), K: cfg.K,
				HourlyUSD: c.HourlyUSD, Iterations: c.Iterations,
				HeavyS: c.Iter.HeavySeconds, LightS: c.Iter.LightSeconds, CPUS: c.Iter.CPUSeconds,
				CommS: c.Iter.CommSeconds, IterS: c.Iter.PerIterSeconds,
				TotalS: c.TotalSeconds, CostUSD: c.CostUSD,
			},
			Feasible: c.Feasible, Score: c.Score, Degraded: c.Degraded,
		}
		for _, u := range c.Iter.UnseenHeavy {
			cj.UnseenHeavy = append(cj.UnseenHeavy, string(u))
		}
		return cj
	}
	want := RecommendResponse{
		CNN: "resnet-101", Objective: "cost", Batch: 32, Samples: ceer.ImageNet.Samples,
		Pricing: "on-demand", Best: toJSON(rec.Best.Cfg, &rec.Best),
	}
	for i := range rec.Candidates {
		want.Candidates = append(want.Candidates, toJSON(rec.Candidates[i].Cfg, &rec.Candidates[i]))
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSuffix(string(body), "\n"); got != string(wantJSON) {
		t.Errorf("recommend body diverges from encoding/json\n got: %s\nwant: %s", got, wantJSON)
	}
}

func TestQueryErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	cases := []struct {
		path, query string
		status      int
	}{
		{"/v1/predict", "", http.StatusBadRequest},                          // missing model
		{"/v1/predict", "model=not-a-model", http.StatusNotFound},           // unknown model
		{"/v1/predict", "model=alexnet&config=9xP3", http.StatusBadRequest}, // unknown config
		{"/v1/predict", "model=alexnet&samples=-3", http.StatusBadRequest},
		{"/v1/predict", "model=alexnet&maxk=99", http.StatusBadRequest},
		{"/v1/predict", "model=alexnet&bogus=1", http.StatusBadRequest}, // unknown parameter
		{"/v1/recommend", "model=alexnet&objective=speed", http.StatusBadRequest},
		{"/v1/recommend", "model=alexnet&max_hourly_usd=abc", http.StatusBadRequest},
		{"/v1/explain", "model=alexnet", http.StatusBadRequest},        // missing gpu
		{"/v1/explain", "model=alexnet&gpu=h100", http.StatusNotFound}, // unknown gpu
		{"/v1/explain", "model=alexnet&gpu=v100&k=17", http.StatusBadRequest},
		{"/v1/nope", "", http.StatusNotFound},
	}
	for _, c := range cases {
		status, body := s.DoLocal(http.MethodGet, c.path, c.query)
		if status != c.status {
			t.Errorf("GET %s?%s: status %d, want %d (%s)", c.path, c.query, status, c.status, body)
		}
		var er ErrorResponse
		if status >= 400 {
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Errorf("GET %s?%s: error body not ErrorResponse-shaped: %s", c.path, c.query, body)
			}
		}
	}
	// Method checks.
	if status, _ := s.DoLocal(http.MethodPost, "/v1/predict", "model=alexnet"); status != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/predict: status %d, want 405", status)
	}
	if status, _ := s.DoLocal(http.MethodGet, "/admin/reload", ""); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /admin/reload: status %d, want 405", status)
	}
}

func TestExplainEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	m := getJSON(t, s, "/v1/explain", "model=resnet-50&gpu=v100&k=2", http.StatusOK)
	if m["cnn"] != "resnet-50" || m["gpu"] != "v100" || !jsonNumExact(m["k"], 2) {
		t.Errorf("explain header wrong: %v", m)
	}
	contribs := m["contributions"].([]any)
	if len(contribs) == 0 {
		t.Fatal("no contributions")
	}
	var share float64
	for _, c := range contribs {
		share += c.(map[string]any)["share"].(float64)
	}
	share += m["comm_share"].(float64)
	if share <= 0 || share > 1.01 {
		t.Errorf("shares sum to %v, want in (0, 1]", share)
	}
}

// TestExplainDegradedDevice: a degraded device without comm models is
// explained the way the sweep predicts it, without the comm term and
// with the reason the sweep prints.
func TestExplainDegradedDevice(t *testing.T) {
	sys := degradedSystem(t)
	s, err := New(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reason, ok := sys.Predictor().Degraded(ceer.GPUModel("m60"))
	if !ok {
		t.Fatal("m60 is not degraded in the degraded test system")
	}
	m := getJSON(t, s, "/v1/explain", "model=resnet-50&gpu=m60", http.StatusOK)
	if !jsonNumExact(m["comm_s"], 0) || !jsonNumExact(m["comm_share"], 0) {
		t.Errorf("comm_s = %v, comm_share = %v; want 0 without a comm model", m["comm_s"], m["comm_share"])
	}
	if m["degraded"] != reason {
		t.Errorf("degraded = %v, want %q", m["degraded"], reason)
	}
	if len(m["contributions"].([]any)) == 0 {
		t.Error("no contributions")
	}
	clean := getJSON(t, s, "/v1/explain", "model=resnet-50&gpu=v100", http.StatusOK)
	if _, ok := clean["degraded"]; ok {
		t.Errorf("a clean device's explanation carries degraded: %v", clean["degraded"])
	}
}

// TestExplainMatchesPredict: /v1/explain reads the same table as
// /v1/predict and follows its sweep, so for every zoo model × device ×
// k ∈ {1,2,4} the per-iteration fields and the degraded reason print
// the same bytes on both endpoints. On the degraded predictor the G3
// rows have no comm model, and both answer them without the comm term.
func TestExplainMatchesPredict(t *testing.T) {
	systems := []struct {
		name string
		sys  func(testing.TB) *ceer.System
	}{{"clean", testSystem}, {"degraded", degradedSystem}}
	fields := []string{"heavy_s", "light_s", "cpu_s", "comm_s", "iter_s", "degraded"}
	for _, sc := range systems {
		t.Run(sc.name, func(t *testing.T) {
			s, err := New(sc.sys(t), Options{})
			if err != nil {
				t.Fatal(err)
			}
			cells := 0
			for _, model := range ceer.Models() {
				status, body := s.DoLocal(http.MethodGet, "/v1/predict", "model="+model)
				if status != http.StatusOK {
					t.Fatalf("GET /v1/predict?model=%s: status %d: %s", model, status, body)
				}
				var pdoc struct {
					Predictions []map[string]json.RawMessage `json:"predictions"`
				}
				if err := json.Unmarshal(body, &pdoc); err != nil {
					t.Fatalf("GET /v1/predict?model=%s: %v\n%s", model, err, body)
				}
				for _, pred := range pdoc.Predictions {
					var gpu string
					var k int
					if err := json.Unmarshal(pred["gpu"], &gpu); err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(pred["k"], &k); err != nil {
						t.Fatal(err)
					}
					if k == 3 {
						continue
					}
					eq := fmt.Sprintf("model=%s&gpu=%s&k=%d", model, gpu, k)
					status, body = s.DoLocal(http.MethodGet, "/v1/explain", eq)
					if status != http.StatusOK {
						t.Fatalf("GET /v1/explain?%s: status %d: %s", eq, status, body)
					}
					var edoc map[string]json.RawMessage
					if err := json.Unmarshal(body, &edoc); err != nil {
						t.Fatalf("GET /v1/explain?%s: %v\n%s", eq, err, body)
					}
					for _, f := range fields {
						if got, want := edoc[f], pred[f]; !bytes.Equal(got, want) {
							t.Errorf("%s on %dx%s: explain %s = %s, predict %s = %s", model, k, gpu, f, got, f, want)
						}
					}
					cells++
				}
			}
			if want := len(ceer.Models()) * len(ceer.AllConfigs(1)) * 3; cells != want {
				t.Errorf("compared %d cells, want %d", cells, want)
			}
		})
	}
}

// TestNonDefaultBatchFollowsSwap: a request at a batch size other than
// the compiled one is answered from the serving generation's
// predictor, so an accepted calibration swap moves it too, and it
// answers byte for byte like a daemon compiled at that batch size.
func TestNonDefaultBatchFollowsSwap(t *testing.T) {
	const q = "model=resnet-50&batch=64&config=1xP3"
	s := newTestServer(t, Options{
		ReloadTolerance: 1e9,
		Calibration:     &CalibrationOptions{Policy: ceer.CalibrationPolicy{RefitEvery: 64}},
	})
	status, before := s.DoLocal(http.MethodGet, "/v1/predict", q)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, before)
	}
	gen0 := s.Generation()
	drifted := obsBody(scaleObs(t, testObsLines(t, 2000), 1.3))
	for i := 0; s.Generation() == gen0; i++ {
		if i == 5 {
			t.Fatal("no calibration swap installed under an accept-everything tolerance")
		}
		postObserve(t, s, drifted, http.StatusOK)
	}
	_, after := s.DoLocal(http.MethodGet, "/v1/predict", q)
	if bytes.Equal(before, after) {
		t.Fatalf("batch=64 answer unchanged across generation %d -> %d: %s", gen0, s.Generation(), after)
	}

	var saved bytes.Buffer
	if err := s.Tables().Predictor().Save(&saved); err != nil {
		t.Fatal(err)
	}
	calibrated, err := ceer.Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(calibrated, Options{Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, want := ref.DoLocal(http.MethodGet, "/v1/predict", q); !bytes.Equal(after, want) {
		t.Errorf("batch=64 answer diverges from a daemon compiled at batch 64\n got: %s\nwant: %s", after, want)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, Options{})
	h := getJSON(t, s, "/healthz", "", http.StatusOK)
	if h["status"] != "healthy" || !jsonNumExact(h["models"], float64(len(ceer.Models()))) || !jsonNumExact(h["batch"], 32) {
		t.Errorf("healthz: %v", h)
	}

	s.DoLocal(http.MethodGet, "/v1/predict", "model=alexnet")
	s.DoLocal(http.MethodGet, "/v1/predict", "model=alexnet")
	s.DoLocal(http.MethodGet, "/v1/predict", "model=not-a-model")
	mm := getJSON(t, s, "/metrics", "", http.StatusOK)
	eps := mm["endpoints"].(map[string]any)
	pred := eps["predict"].(map[string]any)
	if !jsonNumExact(pred["requests"], 3) || !jsonNumExact(pred["ok"], 2) || !jsonNumExact(pred["client_errors"], 1) {
		t.Errorf("predict counters: %v", pred)
	}
	if _, ok := pred["latency_buckets"]; !ok {
		t.Errorf("no latency buckets: %v", pred)
	}
}

func TestHTTPSmokeOverTCP(t *testing.T) {
	s := newTestServer(t, Options{Warmup: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{
		"/v1/predict?model=resnet-50",
		"/v1/recommend?model=resnet-50",
		"/v1/explain?model=resnet-50&gpu=t4&k=1",
		"/healthz",
		"/metrics",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q", path, ct)
		}
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Errorf("GET %s: bad JSON: %v", path, err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReloadHotSwap(t *testing.T) {
	sys := testSystem(t)
	dir := t.TempDir()
	path := dir + "/models.json"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{ModelPath: path})
	before := getJSON(t, s, "/v1/predict", "model=alexnet&config=1xP3", http.StatusOK)

	m := getJSONPost(t, s, "/admin/reload", http.StatusOK)
	if !jsonNumExact(m["generation"], 1) || m["status"] != "reloaded" {
		t.Errorf("reload response: %v", m)
	}
	if g := getJSON(t, s, "/healthz", "", http.StatusOK)["generation"]; !jsonNumExact(g, 1) {
		t.Errorf("generation after reload = %v", g)
	}
	// The persisted predictor round-trips exactly, so predictions are
	// unchanged across the swap.
	after := getJSON(t, s, "/v1/predict", "model=alexnet&config=1xP3", http.StatusOK)
	b0, _ := json.Marshal(before) // cannot fail: round-tripped maps
	b1, _ := json.Marshal(after)  // cannot fail: round-tripped maps
	if string(b0) != string(b1) {
		t.Errorf("prediction changed across reload of identical models:\n%s\n%s", b0, b1)
	}

	// Without a model path, reload must refuse.
	s2 := newTestServer(t, Options{})
	if status, _ := s2.DoLocal(http.MethodPost, "/admin/reload", ""); status != http.StatusConflict {
		t.Errorf("reload without model path: status %d, want 409", status)
	}
}

func getJSONPost(t *testing.T, s *Server, path string, wantStatus int) map[string]any {
	t.Helper()
	status, body := s.DoLocal(http.MethodPost, path, "")
	if status != wantStatus {
		t.Fatalf("POST %s: status %d (want %d): %s", path, status, wantStatus, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("POST %s: invalid JSON: %v", path, err)
	}
	return m
}

// jsonNumExact compares a decoded JSON number against an expected
// value exactly: the fields under test are integers or round-tripped
// float64s, so bit-exact equality is the contract.
func jsonNumExact(v any, want float64) bool {
	f, ok := v.(float64)
	return ok && f == want
}

package loadgen

import (
	"hash/fnv"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var testSpec = Spec{
	Seed:     3,
	Requests: 300,
	Models:   []string{"alexnet", "resnet-50", "vgg-16"},
	Configs:  []string{"1xP2", "2xP3"},
}

// TestGenerateDeterminism: the op stream is a pure function of the
// Spec, and op i depends only on (Seed, i).
func TestGenerateDeterminism(t *testing.T) {
	a, b := Generate(testSpec), Generate(testSpec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Generate calls with the same spec diverge")
	}
	shorter := testSpec
	shorter.Requests = 50
	c := Generate(shorter)
	if !reflect.DeepEqual(a[:50], c) {
		t.Error("op i depends on stream length; want per-index derivation")
	}
	other := testSpec
	other.Seed = 4
	if reflect.DeepEqual(a, Generate(other)) {
		t.Error("different seeds produced identical streams")
	}

	predicts, recommends, markets := 0, 0, 0
	for _, op := range a {
		switch op.Path {
		case "/v1/predict":
			predicts++
		case "/v1/recommend":
			recommends++
		default:
			t.Fatalf("unexpected path %q", op.Path)
		}
		if strings.Contains(op.RawQuery, "pricing=market") {
			markets++
		}
		if !strings.Contains(op.RawQuery, "model=") {
			t.Fatalf("op without model: %+v", op)
		}
	}
	if predicts == 0 || recommends == 0 || markets == 0 {
		t.Errorf("degenerate mix: %d predicts, %d recommends, %d market", predicts, recommends, markets)
	}
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	a := PoissonArrivals(9, 1000, 500)
	b := PoissonArrivals(9, 1000, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	var prev int64 = -1
	for i, at := range a {
		if at <= prev {
			t.Fatalf("arrival %d not strictly increasing: %d after %d", i, at, prev)
		}
		prev = at
	}
	// Mean interarrival should be ~1ms at 1000/s; accept a wide band.
	mean := float64(a[len(a)-1]) / float64(len(a))
	if mean < 0.5e6 || mean > 2e6 {
		t.Errorf("mean interarrival %.0fns implausible for 1000/s", mean)
	}
	if reflect.DeepEqual(a, PoissonArrivals(10, 1000, 500)) {
		t.Error("different seeds produced identical schedules")
	}
}

// echoHandler answers with a body derived deterministically from the
// request (path+query), so outcome hashes detect any index/request
// mismatch introduced by concurrency.
func echoHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := r.URL.Path + "?" + r.URL.RawQuery
		if strings.Contains(r.URL.RawQuery, "pricing=market") {
			w.WriteHeader(http.StatusTeapot) // distinguishable status
		}
		if _, err := w.Write([]byte(body)); err != nil {
			panic(err)
		}
	})
}

// TestWorkerInvariance is the determinism contract of HandlerTarget:
// each request's outcome (status, body length, body hash) depends on
// the request alone, whether one goroutine or four share the target's
// pooled writers.
func TestWorkerInvariance(t *testing.T) {
	reqs := Prepare(Generate(testSpec))
	target := NewHandlerTarget(echoHandler())
	run := func(workers int) []Outcome {
		out := make([]Outcome, len(reqs))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(reqs); i += workers {
					out[i] = target.Do(i, reqs[i])
				}
			}()
		}
		wg.Wait()
		return out
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatal("outcomes differ between 1 and 4 workers")
	}
	for i, o := range one {
		body := reqs[i].URL.Path + "?" + reqs[i].URL.RawQuery
		h := fnv.New64a()
		if _, err := h.Write([]byte(body)); err != nil {
			t.Fatal(err)
		}
		status := http.StatusOK
		if strings.Contains(body, "pricing=market") {
			status = http.StatusTeapot
		}
		if o != (Outcome{Status: status, BodyLen: len(body), BodyHash: h.Sum64()}) {
			t.Fatalf("request %d: outcome %+v, want status %d over %q", i, o, status, body)
		}
	}
}

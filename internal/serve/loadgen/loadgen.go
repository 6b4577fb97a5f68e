// Package loadgen is the daemon's deterministic request stream: it
// synthesizes the read mix under the repository's seeded rng stream
// discipline, with the Poisson arrival schedule of an open-loop run.
// perfbench replays the stream against the live daemon and measures it;
// HandlerTarget answers a prepared request in-process, reducing the body
// to an Outcome, so a served response can be checked without keeping it.
//
// Determinism contract: the generated ops and arrival offsets are pure
// functions of their seed. Each op derives its own rng stream from
// (seed, index), so op i is the same whatever the stream length and
// whichever requests run first.
package loadgen

import (
	"math"
	"net/http"
	"net/url"
	"sync"

	"ceer/internal/rng"
)

// Op is one generated request.
type Op struct {
	Method   string
	Path     string
	RawQuery string
}

// Spec parameterizes a generated request stream.
type Spec struct {
	// Seed roots every derived stream.
	Seed uint64
	// Requests is the stream length.
	Requests int
	// Models are the CNN names to draw from (required).
	Models []string
	// Configs are optional `config=` values for predict ops; when one
	// is drawn the predict targets a single configuration, otherwise
	// the full candidate sweep. ~half the predicts draw a config when
	// the list is non-empty.
	Configs []string
}

const (
	// predictShare is the fraction of predict ops; the rest are
	// recommends.
	predictShare = 0.65
	// marketShare is the fraction of ops priced at market ratios.
	marketShare = 0.2
)

// streamSalt labels the loadgen's derivation domain so its streams are
// independent of the simulator's (same discipline as internal/sim).
const streamSalt = 0x10adc0de

// Generate synthesizes the op stream. Op i is derived from (Seed, i)
// alone, so any subset or reordering of executions leaves every op
// unchanged.
func Generate(spec Spec) []Op {
	if spec.Requests <= 0 || len(spec.Models) == 0 {
		return nil
	}
	root := rng.New(spec.Seed).Derive(streamSalt)
	ops := make([]Op, spec.Requests)
	for i := range ops {
		r := root.Derive(uint64(i))
		model := spec.Models[r.Intn(len(spec.Models))]
		q := "model=" + model
		if r.Float64() < marketShare {
			q += "&pricing=market"
		}
		if r.Float64() < predictShare {
			if len(spec.Configs) > 0 && r.Float64() < 0.5 {
				q += "&config=" + spec.Configs[r.Intn(len(spec.Configs))]
			}
			ops[i] = Op{Method: http.MethodGet, Path: "/v1/predict", RawQuery: q}
		} else {
			obj := "cost"
			if r.Float64() < 0.5 {
				obj = "time"
			}
			ops[i] = Op{Method: http.MethodGet, Path: "/v1/recommend", RawQuery: q + "&objective=" + obj}
		}
	}
	return ops
}

// Prepare builds one reusable *http.Request per op, so executing a
// request allocates nothing beyond what the target itself does.
func Prepare(ops []Op) []*http.Request {
	reqs := make([]*http.Request, len(ops))
	for i, op := range ops {
		reqs[i] = &http.Request{
			Method: op.Method,
			URL:    &url.URL{Path: op.Path, RawQuery: op.RawQuery},
		}
	}
	return reqs
}

// PoissonArrivals returns a cumulative Poisson arrival schedule
// (nanosecond offsets from run start) at the given rate, derived
// deterministically from the seed.
func PoissonArrivals(seed uint64, ratePerSec float64, n int) []int64 {
	r := rng.New(seed).Derive(streamSalt + 1)
	out := make([]int64, n)
	var t float64
	for i := range out {
		u := r.Float64()
		// Inverse-CDF exponential interarrival; 1-u is in (0, 1].
		t += -math.Log(1-u) / ratePerSec * 1e9
		out[i] = int64(t)
	}
	return out
}

// Outcome is a request's deterministic result: status code, body
// length, and FNV-64a body hash (the equality witness for a served
// body without retaining it).
type Outcome struct {
	Status   int
	BodyLen  int
	BodyHash uint64
}

// hashWriter is a ResponseWriter that hashes the body instead of
// storing it.
type hashWriter struct {
	h      http.Header
	status int
	n      int
	sum    uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (w *hashWriter) reset() {
	w.status = http.StatusOK
	w.n = 0
	w.sum = fnvOffset
}

func (w *hashWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *hashWriter) WriteHeader(status int) { w.status = status }
func (w *hashWriter) Write(p []byte) (int, error) {
	sum := w.sum
	for _, c := range p {
		sum = (sum ^ uint64(c)) * fnvPrime
	}
	w.sum = sum
	w.n += len(p)
	return len(p), nil
}

// HandlerTarget drives an http.Handler in-process (no sockets). It is
// safe for concurrent use: writers are pooled, one per caller at a
// time.
type HandlerTarget struct {
	h    http.Handler
	pool sync.Pool
}

// NewHandlerTarget wraps a handler (e.g. serve.Server).
func NewHandlerTarget(h http.Handler) *HandlerTarget {
	t := &HandlerTarget{h: h}
	t.pool.New = func() any { return &hashWriter{} }
	return t
}

// Do serves one prepared request and reduces the response to its
// Outcome. The index is unused.
func (t *HandlerTarget) Do(_ int, req *http.Request) Outcome {
	w := t.pool.Get().(*hashWriter)
	w.reset()
	t.h.ServeHTTP(w, req)
	out := Outcome{Status: w.status, BodyLen: w.n, BodyHash: w.sum}
	t.pool.Put(w)
	return out
}

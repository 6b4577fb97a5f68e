package hot

import (
	"strings"
	"sync"
	"sync/atomic"
)

// The shapes below mirror the serving daemon (internal/serve): a
// request router, a query parser, an admission gate, and a metrics
// recorder all run per-request and are marked //hot:path; response
// rendering is append-heavy by design and therefore kept OUT of the
// proof (the proof bans append under marked functions, so the daemon
// puts its encoders behind //hot:exempt boundaries and pins their
// allocation behavior with benchmarks instead).

// daemon is a miniature of serve.Server's hot state.
type daemon struct {
	mu       sync.Mutex
	routes   map[string]int
	counters [4]atomic.Uint64
	inflight atomic.Int64
	buf      []byte
}

// badRoute resolves an endpoint through a map on the marked path —
// the daemon uses a switch on the path literal instead.
//
//hot:path
func (d *daemon) badRoute(path string) int {
	return d.routes[path] // want `map index in //hot:path function daemon.badRoute`
}

// badAdmit guards admission state with a mutex — the daemon uses
// lock-free atomics (token bucket CAS, in-flight counter).
//
//hot:path
func (d *daemon) badAdmit() bool {
	d.mu.Lock() // want `sync Lock acquired in //hot:path function daemon.badAdmit`
	defer d.mu.Unlock()
	return d.inflight.Load() < 8
}

// badRender appends the response body inside a marked function — body
// assembly belongs in an unmarked encoder over a pooled scratch.
//
//hot:path
func (d *daemon) badRender(msg string) {
	d.buf = append(d.buf, msg...) // want `append may grow its backing array in //hot:path function daemon.badRender`
}

// cleanRoute is the daemon's sanctioned router shape: a switch on the
// path string, no map.
//
//hot:path
func (d *daemon) cleanRoute(path string) int {
	switch path {
	case "/v1/predict":
		return 0
	case "/v1/recommend":
		return 1
	default:
		return 3
	}
}

// cleanParse scans a query string by substring — no url.Values map.
//
//hot:path
func (d *daemon) cleanParse(raw string) (model string) {
	for len(raw) > 0 {
		pair := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		if strings.HasPrefix(pair, "model=") {
			model = pair[len("model="):]
		}
	}
	return model
}

// cleanObserve records a request outcome with atomics only.
//
//hot:path
func (d *daemon) cleanObserve(ep int) {
	d.counters[ep].Add(1)
	d.inflight.Add(-1)
}

// render is the deliberately-unmarked encoder: append into a reused
// buffer is the whole point of the pooled-scratch design, and the
// zero-allocation contract is enforced by benchmarks; no root calls it,
// so the proof never reaches it.
func (d *daemon) render(msg string) {
	d.buf = append(d.buf[:0], '{')
	d.buf = append(d.buf, msg...)
	d.buf = append(d.buf, '}')
}

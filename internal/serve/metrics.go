package serve

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Endpoint indices: hot counters live in flat arrays indexed by these,
// so recording a request is two or three atomic adds — no maps, no
// locks, no allocation (the allocfree hot-path proof guards this).
const (
	epPredict = iota
	epRecommend
	epExplain
	epObserve
	epHealthz
	epMetrics
	epAdmin
	epOther
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"predict", "recommend", "explain", "observe", "healthz", "metrics", "admin", "other",
}

// numBuckets is the latency histogram depth: bucket i counts requests
// with latency in [2^(i-1), 2^i) microseconds (bucket 0 is < 1 µs), so
// 28 buckets span sub-microsecond to ~2.2 minutes.
const numBuckets = 28

// epCounters is one endpoint's counter block. Every field is an atomic
// touched only by Add/Load; the /metrics endpoint snapshots them
// without stopping traffic.
type epCounters struct {
	requests     atomic.Uint64
	ok           atomic.Uint64 // 2xx/3xx responses
	clientErrors atomic.Uint64 // 4xx responses (shed included)
	serverErrors atomic.Uint64 // 5xx responses (timeouts included)
	shedRate     atomic.Uint64 // 429s from the token bucket
	shedQueue    atomic.Uint64 // 429s from the queue-depth cap
	timeouts     atomic.Uint64 // 504s from the request budget
	writeErrors  atomic.Uint64 // response writes the client never got
	totalNanos   atomic.Uint64
	buckets      [numBuckets]atomic.Uint64
}

// srvCounters are daemon-lifetime counters (panic isolation, reload
// validation, calibration). Unlike the per-endpoint blocks they survive
// the end-of-warmup reset — a panic during warmup is still a panic.
type srvCounters struct {
	panics             atomic.Uint64 // handler panics recovered (each one a 500)
	degradedEntries    atomic.Uint64 // breaker trips into the degraded state
	reloads            atomic.Uint64 // accepted model-file reloads
	reloadRejected     atomic.Uint64 // model-file reloads rejected by validation
	calibObs           atomic.Uint64 // observations journaled and applied
	calibShed          atomic.Uint64 // observations shed while degraded
	calibDropped       atomic.Uint64 // malformed/failed tail-mode lines dropped
	calibSwaps         atomic.Uint64 // calibration refits installed as serving tables
	calibSwapsRejected atomic.Uint64 // refits rejected by the golden probe
	driftedCells       atomic.Int64  // gauge: cells currently flagged drifted
}

// metrics is the daemon's whole metric state: a fixed array of endpoint
// counter blocks plus the server-lifetime block.
type metrics struct {
	eps [numEndpoints]epCounters
	srv srvCounters
}

// bucketIndex maps a latency to its power-of-two histogram bucket.
//
//hot:path
func bucketIndex(nanos int64) int {
	if nanos < 0 {
		nanos = 0
	}
	idx := bits.Len64(uint64(nanos / 1_000))
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// observe records one finished request: status class, latency bucket,
// and latency sum.
//
//hot:path
func (m *metrics) observe(ep, status int, nanos int64) {
	c := &m.eps[ep]
	c.requests.Add(1)
	switch {
	case status < 400:
		c.ok.Add(1)
	case status < 500:
		c.clientErrors.Add(1)
	default:
		c.serverErrors.Add(1)
	}
	if nanos > 0 {
		c.totalNanos.Add(uint64(nanos))
	}
	c.buckets[bucketIndex(nanos)].Add(1)
}

// reset zeroes every counter (end of warmup, so synthetic traffic does
// not pollute the serving metrics).
func (m *metrics) reset() {
	for e := range m.eps {
		c := &m.eps[e]
		c.requests.Store(0)
		c.ok.Store(0)
		c.clientErrors.Store(0)
		c.serverErrors.Store(0)
		c.shedRate.Store(0)
		c.shedQueue.Store(0)
		c.timeouts.Store(0)
		c.writeErrors.Store(0)
		c.totalNanos.Store(0)
		for i := range c.buckets {
			c.buckets[i].Store(0)
		}
	}
}

// LatencyBucket is one histogram cell of an endpoint snapshot: Count
// requests finished in at most LeMicros microseconds (and more than the
// previous bucket's bound).
type LatencyBucket struct {
	LeMicros uint64 `json:"le_us"`
	Count    uint64 `json:"count"`
}

// EndpointSnapshot is the JSON form of one endpoint's counters.
type EndpointSnapshot struct {
	Requests     uint64          `json:"requests"`
	OK           uint64          `json:"ok"`
	ClientErrors uint64          `json:"client_errors"`
	ServerErrors uint64          `json:"server_errors"`
	ShedRate     uint64          `json:"shed_rate"`
	ShedQueue    uint64          `json:"shed_queue"`
	Timeouts     uint64          `json:"timeouts"`
	WriteErrors  uint64          `json:"write_errors"`
	AvgMicros    float64         `json:"avg_us"`
	P50Micros    uint64          `json:"p50_us"`
	P99Micros    uint64          `json:"p99_us"`
	P999Micros   uint64          `json:"p999_us"`
	Buckets      []LatencyBucket `json:"latency_buckets,omitempty"`
}

// ServerSnapshot is the JSON form of the daemon-lifetime counters.
type ServerSnapshot struct {
	Panics             uint64 `json:"panics"`
	DegradedEntries    uint64 `json:"degraded_entries"`
	Reloads            uint64 `json:"reloads"`
	ReloadRejected     uint64 `json:"reload_rejected"`
	LastReloadCause    string `json:"last_reload_cause,omitempty"`
	CalibObs           uint64 `json:"calib_obs"`
	CalibShed          uint64 `json:"calib_shed"`
	CalibDropped       uint64 `json:"calib_dropped"`
	CalibSwaps         uint64 `json:"calib_swaps"`
	CalibSwapsRejected uint64 `json:"calib_swaps_rejected"`
	DriftedCells       int64  `json:"drifted_cells"`
}

// MetricsSnapshot is the /metrics response document.
type MetricsSnapshot struct {
	UptimeSeconds float64                     `json:"uptime_s"`
	Generation    uint64                      `json:"generation"`
	State         string                      `json:"state"`
	Draining      bool                        `json:"draining"`
	Server        ServerSnapshot              `json:"server"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
}

// snapshot copies the server-lifetime counters into their JSON form
// (LastReloadCause is filled by the caller, which owns the atomic
// pointer).
func (c *srvCounters) snapshot() ServerSnapshot {
	return ServerSnapshot{
		Panics:             c.panics.Load(),
		DegradedEntries:    c.degradedEntries.Load(),
		Reloads:            c.reloads.Load(),
		ReloadRejected:     c.reloadRejected.Load(),
		CalibObs:           c.calibObs.Load(),
		CalibShed:          c.calibShed.Load(),
		CalibDropped:       c.calibDropped.Load(),
		CalibSwaps:         c.calibSwaps.Load(),
		CalibSwapsRejected: c.calibSwapsRejected.Load(),
		DriftedCells:       c.driftedCells.Load(),
	}
}

// snapshot copies the counters into their JSON form. Quantiles are
// histogram upper bounds: the reported p99 is the bucket boundary at or
// above the true 99th percentile (at most 2x the true value, by
// construction of the power-of-two buckets).
func (m *metrics) snapshot() map[string]EndpointSnapshot {
	out := make(map[string]EndpointSnapshot, numEndpoints)
	for e := range m.eps {
		c := &m.eps[e]
		s := EndpointSnapshot{
			Requests:     c.requests.Load(),
			OK:           c.ok.Load(),
			ClientErrors: c.clientErrors.Load(),
			ServerErrors: c.serverErrors.Load(),
			ShedRate:     c.shedRate.Load(),
			ShedQueue:    c.shedQueue.Load(),
			Timeouts:     c.timeouts.Load(),
			WriteErrors:  c.writeErrors.Load(),
		}
		if s.Requests == 0 {
			continue
		}
		var counts [numBuckets]uint64
		var total uint64
		for i := range counts {
			counts[i] = c.buckets[i].Load()
			total += counts[i]
		}
		s.AvgMicros = float64(c.totalNanos.Load()) / float64(s.Requests) / 1e3
		s.P50Micros = histQuantile(counts[:], total, 0.50)
		s.P99Micros = histQuantile(counts[:], total, 0.99)
		s.P999Micros = histQuantile(counts[:], total, 0.999)
		for i, n := range counts {
			if n > 0 {
				s.Buckets = append(s.Buckets, LatencyBucket{LeMicros: bucketBound(i), Count: n})
			}
		}
		out[endpointNames[e]] = s
	}
	return out
}

// bucketBound is bucket i's inclusive upper latency bound in
// microseconds.
func bucketBound(i int) uint64 {
	if i == 0 {
		return 0 // sub-microsecond
	}
	return uint64(1)<<uint(i) - 1
}

// histQuantile returns the upper bound of the bucket containing the
// q-quantile of the histogram.
func histQuantile(counts []uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen >= rank {
			return bucketBound(i)
		}
	}
	return bucketBound(numBuckets - 1)
}

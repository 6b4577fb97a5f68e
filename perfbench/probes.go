package main

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"time"

	"ceer"
	"ceer/internal/serve"
	"ceer/internal/serve/loadgen"
	"ceer/internal/trace"
	"ceer/internal/zoo"
)

// checkServed sends every op once to the daemon and checks each body
// against the in-process reference (Server.DoLocal on the same model).
func checkServed(res *result, d *daemon, ops []loadgen.Op, ref *reference) {
	c := newClient(d.base)
	defer c.close()
	for i, op := range ops {
		status := c.do(op.Method, op.Path, op.RawQuery, nil)
		res.check(status == http.StatusOK && bodyHash(c.body.Bytes()) == ref.calls[i].want,
			"served %s?%s (status %d) differs from DoLocal", op.Path, op.RawQuery, status)
	}
}

// probeLayers measures, in-process, the layers a workload's traced loop
// does not time itself: persist (LoadFile), serve set-up (serve.New with
// warmup), the handler's allocation and GC cost per request and body
// sizes over a fixed op prefix, and calibration plus observe over one
// pass of the drifted stream (generated at the seed when batches is nil).
func probeLayers(ctx context.Context, cfg config, res *result, model string, ref *reference, ops []loadgen.Op, batches [][]byte) error {
	var loads, news []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_, err := ceer.LoadFile(model)
		loads = append(loads, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
	}
	res.setLayer("ceer.load_s", "s", median(loads))
	for i := 0; i < 3; i++ {
		s, err := ceer.LoadFile(model)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = serve.New(s, serve.Options{Warmup: true})
		news = append(news, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
	}
	res.setLayer("serve.new_s", "s", median(news))

	inprocRequests(res, ref, ops)

	if batches == nil {
		var err error
		if batches, _, err = driftBatches(ctx, cfg.seed); err != nil {
			return err
		}
	}
	cr, err := calibrate(model, batches, true, res.tr)
	if err != nil {
		return err
	}
	res.setLayer("ceer.calib_apply_us", "us", median(cr.applyUs))
	res.setLayer("ceer.calib_refit_ms", "ms", median(cr.refitMs))
	res.setLayer("ceer.calib_refits", "count", float64(len(cr.refitMs)))
	res.setLayer("ceer.calib_skipped_frac", "fraction", cr.skippedFrac)
	return observeLayer(res, model, batches, cr.batchS)
}

// inprocRequests runs the first ops of the stream through the reference
// handler with nothing else running, counting allocations and GC cycles
// per request, and reports each kind's mean body size (a pure function of
// the seed and the model). Like testing.AllocsPerRun, it runs on one P
// and truncates allocations per request to a whole number, so a stray
// runtime allocation does not make the count differ between runs.
func inprocRequests(res *result, ref *reference, ops []loadgen.Op) {
	bytesBy := map[string][]float64{}
	for i := range ops {
		c := ref.calls[i]
		bytesBy[c.kind] = append(bytesBy[c.kind], float64(c.wantN))
	}
	for _, k := range kinds {
		res.setLayer("serve.body_bytes."+k, "B", mean(bytesBy[k]))
	}
	for i := range ops { // warm the handler's scratch pool
		ref.target.Do(0, ref.calls[i].req)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 4
	for r := 0; r < rounds; r++ {
		for i := range ops {
			ref.target.Do(0, ref.calls[i].req)
		}
	}
	runtime.ReadMemStats(&after)
	n := uint64(rounds * len(ops))
	res.setLayer("serve.allocs_per_req", "count", float64((after.Mallocs-before.Mallocs)/n))
	res.setLayer("gc.cycles_per_1k_req", "count", float64(after.NumGC-before.NumGC)/float64(n)*1000)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// calibResult is one offline calibration pass.
type calibResult struct {
	applyUs     []float64 // per Calibrate call without a refit
	refitMs     []float64 // per Calibrate call that refit
	batchS      []float64 // Σ Calibrate seconds per batch
	skippedFrac float64
	saved       []byte // the calibrated predictor, persisted
}

// calibrate feeds the batches, in order, to a Calibrator over the model
// file — the daemon's calibration loop without the daemon. With bind,
// every refit also compiles into a CompiledBox, as the daemon's does.
func calibrate(model string, batches [][]byte, bind bool, tr *tracer) (*calibResult, error) {
	sys, err := ceer.LoadFile(model)
	if err != nil {
		return nil, err
	}
	cal, err := sys.NewCalibrator(ceer.DefaultCalibrationPolicy())
	if err != nil {
		return nil, err
	}
	if bind {
		var box ceer.CompiledBox
		if err := cal.BindBox(&box, zooGraphs()); err != nil {
			return nil, err
		}
	}
	cr := &calibResult{}
	for _, b := range batches {
		obs, err := trace.ReadObsLog(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		req := tr.newReq()
		sp := tr.begin("ceer.calibrate", req, 0)
		batch := 0.0
		for _, o := range obs {
			p := cal.Predictor()
			t0 := time.Now()
			err := cal.Calibrate(o)
			dt := time.Since(t0).Seconds()
			if err != nil {
				return nil, err
			}
			batch += dt
			if cal.Predictor() != p {
				cr.refitMs = append(cr.refitMs, dt*1e3)
			} else {
				cr.applyUs = append(cr.applyUs, dt*1e6)
			}
		}
		tr.end(sp)
		cr.batchS = append(cr.batchS, batch)
	}
	rep := cal.Report()
	if rep.Observations > 0 {
		cr.skippedFrac = float64(rep.SkippedClass+rep.SkippedUnmodeled+rep.SkippedShape) / float64(rep.Observations)
	}
	var buf bytes.Buffer
	if err := cal.Predictor().Save(&buf); err != nil {
		return nil, err
	}
	cr.saved = buf.Bytes()
	return cr, nil
}

func zooGraphs() []*ceer.Graph {
	var gs []*ceer.Graph
	for _, name := range ceer.Models() {
		g, err := ceer.BuildModelCached(name, zoo.DefaultBatch)
		if err != nil {
			panic(err) // the built-in zoo always builds
		}
		gs = append(gs, g)
	}
	return gs
}

// observeLayer POSTs the batches to an in-process calibrating server
// (Server.ServeHTTP, no socket, no journal) and reports the observe
// time per batch, its part outside Calibrate (decode, probe, install),
// and the generations the refits installed.
func observeLayer(res *result, model string, batches [][]byte, calibS []float64) error {
	sys, err := ceer.LoadFile(model)
	if err != nil {
		return err
	}
	srv, err := serve.New(sys, serve.Options{Calibration: &serve.CalibrationOptions{}})
	if err != nil {
		return err
	}
	var obsMs, overMs []float64
	for i, b := range batches {
		req := res.tr.newReq()
		sp := res.tr.begin("serve.observe", req, 0)
		t0 := time.Now()
		status, body := srv.DoLocalBody(http.MethodPost, "/v1/observe", "", b)
		dt := time.Since(t0).Seconds()
		res.tr.end(sp)
		res.check(status == http.StatusOK, "in-process observe batch %d: status %d: %s", i, status, body)
		obsMs = append(obsMs, dt*1e3)
		overMs = append(overMs, (dt-calibS[i])*1e3)
	}
	res.setLayer("serve.observe_ms", "ms", median(obsMs))
	res.setLayer("serve.observe_overhead_ms", "ms", median(overMs))
	res.setLayer("serve.generations", "count", float64(srv.Generation()))
	return nil
}

// readProbe is a short traced open-loop read phase against the daemon,
// for workloads whose own loop sends no reads: it yields the request
// layers (http, handler, gather per kind), shed count and the
// generator's lateness.
func readProbe(res *result, d *daemon, ops []loadgen.Op, ref *reference, seed uint64, dur time.Duration) error {
	l := &readLoad{base: d.base, ops: ops, ref: ref, check: true, tr: res.tr}
	recs := l.open(1, arrivals(seed, probeRate, dur.Seconds()), 0)
	account(res, recs)
	requestLayers(res, res.tr.snapshot())
	res.setLayer("serve.shed", "count", float64(countStatus(recs, http.StatusTooManyRequests)))
	return lateness(res, recs)
}

const probeRate = 500 // req/s of readProbe

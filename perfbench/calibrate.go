package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ceer/internal/serve"
	"ceer/internal/serve/loadgen"
)

// calibReadRate is the open-loop read rate (req/s) beside calibration.
const calibReadRate = 500

// runServeCalibrate measures calibration as a write beside reads: the
// daemon runs with -observe, one connection POSTs the drifted stream
// back to back in fixed-size batches, the other sends the read mix
// open-loop at calibReadRate. On drain the daemon writes its calibrated
// predictor, which must equal an offline Calibrator fed the same
// batches byte for byte.
func runServeCalibrate(ctx context.Context, cfg config, res *result) error {
	model := filepath.Join(cfg.tmp, "model.json")
	if err := prepareModel(ctx, cfg, res, model); err != nil {
		return err
	}
	batches, dev, err := driftBatches(ctx, cfg.seed)
	if err != nil {
		return err
	}
	ops := readStream(cfg.seed, streamLen)
	ref, err := newReference(model, ops)
	if err != nil {
		return err
	}
	res.note("drifted stream: %d batches of up to %d observations, %s seconds x%g", len(batches), batchLines, dev, driftFactor)

	s, boots, err := runCalibSession(cfg, model, ops, ref, batches, nil)
	if err != nil {
		return err
	}
	cr, err := calibrate(model, s.fed, false, nil)
	if err != nil {
		return err
	}
	res.check(bytes.Equal(s.calibrated, cr.saved), "daemon's calibrated predictor (%d bytes) differs from an offline Calibrator fed the same %d batches (%d bytes)", len(s.calibrated), len(s.fed), len(cr.saved))
	for _, ok := range s.postOK {
		res.op(ok)
	}
	account(res, s.reads)

	rs := summarize(latUs(s.reads))
	obsPerS := float64(s.accepted) / s.wall.Seconds()
	boots.report(res)
	res.setE2E("cpu_ms_per_op", "ms", s.daemonCPU*1e3/float64(s.accepted))
	res.setE2E("wall_ms_per_op", "ms", s.steadyWall.Seconds()*1e3/float64(s.accepted))
	res.value("steal_share (observe window)", "fraction", s.stolen, 1)
	res.value("daemon_cpu_us_per_obs", "us", s.daemonCPU*1e6/float64(s.accepted), s.accepted)
	res.value("obs_per_s", "obs/s", obsPerS, s.accepted)
	res.timing("observe_ms (batch POST)", "ms", summarize(s.postMs))
	res.timing("open_p50_us/open_p99_us", "us", rs)
	res.note("observe batches posted %d (%d passes over the stream), read rate %d req/s", len(s.fed), len(s.fed)/len(batches), calibReadRate)
	if err := lateness(res, s.reads); err != nil {
		return err
	}

	if cfg.trace {
		ts, _, err := runCalibSession(cfg, model, ops, ref, batches, res.tr)
		if err != nil {
			return err
		}
		for _, ok := range ts.postOK {
			res.op(ok)
		}
		account(res, ts.reads)
		spanValidity(res, requestLayers(res, res.tr.snapshot()), ts.reads, rs.P50)
		res.setLayer("serve.shed", "count", float64(countStatus(s.reads, http.StatusTooManyRequests)+countStatus(ts.reads, http.StatusTooManyRequests)))
		if err := probeLayers(ctx, cfg, res, model, ref, ops[:2048], batches); err != nil {
			return err
		}
	}
	return nil
}

// calibSession is one daemon's calibration run.
type calibSession struct {
	fed        [][]byte // batches the daemon accepted, in order
	postOK     []bool
	postMs     []float64
	accepted   int
	wall       time.Duration
	steadyWall time.Duration // wall with the stolen share taken out
	stolen     float64
	daemonCPU  float64 // daemon CPU seconds over the measured window
	reads      []reqRec
	calibrated []byte // the daemon's -calib-out file after drain
}

// runCalibSession boots the calibrating daemon setupBoots times (each on
// a fresh journal) and runs the observe and read connections on the
// last one for the run's measuring time, then drains it. With a tracer,
// reads are traced and observe POSTs get an http span each.
func runCalibSession(cfg config, model string, ops []loadgen.Op, ref *reference, batches [][]byte, tr *tracer) (*calibSession, setup, error) {
	calibOut := filepath.Join(cfg.tmp, "calibrated.json")
	tag := "untraced"
	if tr != nil {
		tag = "traced"
	}
	d, boots, err := bootSeries(ceerBin, setupBoots, func(i int) []string {
		journal := filepath.Join(cfg.tmp, fmt.Sprintf("journal-%s-%d.jsonl", tag, i))
		return []string{"-models", model, "-warmup", "-observe", "-observe-journal", journal, "-fsync", "never", "-calib-out", calibOut}
	})
	if err != nil {
		return nil, boots, err
	}
	s := &calibSession{}
	c0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		d.kill()
		return nil, boots, err
	}
	deadline := time.Now().Add(cfg.duration())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newClient(d.base)
		defer c.close()
		t0, clock := time.Now(), startStealClock()
		for n := 0; time.Now().Before(deadline); n++ {
			b := batches[n%len(batches)]
			req := tr.newReq()
			sp := tr.begin("observe.http", req, 0)
			p0 := time.Now()
			status := c.do(http.MethodPost, "/v1/observe", "", b)
			s.postMs = append(s.postMs, time.Since(p0).Seconds()*1e3)
			tr.end(sp)
			var resp serve.ObserveResponse
			ok := status == http.StatusOK && json.Unmarshal(c.body.Bytes(), &resp) == nil && resp.Accepted == bytes.Count(b, []byte("\n"))
			s.postOK = append(s.postOK, ok)
			if status == http.StatusOK {
				s.fed = append(s.fed, b)
				s.accepted += resp.Accepted
			}
		}
		s.wall = time.Since(t0)
		s.steadyWall, s.stolen = clock.elapsed()
	}()
	l := &readLoad{base: d.base, ops: ops, ref: ref, tr: tr}
	s.reads = l.open(1, arrivals(cfg.seed, calibReadRate, cfg.duration().Seconds()), 0)
	wg.Wait()
	c1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		d.kill()
		return nil, boots, err
	}
	s.daemonCPU = c1 - c0
	if err := d.stop(); err != nil {
		return nil, boots, err
	}
	s.calibrated, err = os.ReadFile(calibOut)
	return s, boots, err
}

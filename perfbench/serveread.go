package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Read-load shape. The run is cut into cycles of about cycleSeconds;
// each cycle runs the closed loop for closedShare of it, then one
// open-loop phase per ladder rate in the rest, so every phase samples
// the whole run rather than one stretch of it. openRate is the fixed
// rate open_p50_us and open_p99_us are reported at; slo_rps is the
// highest ladder rate whose tail latency stays within latencyLimitUs
// with no failures and no growing backlog.
var ladder = []int{500, 1000, 2000, 4000}

const (
	cycleSeconds   = 5
	closedShare    = 0.6
	openRate       = 1000
	latencyLimitUs = 5000
	streamLen      = 8192
	// lateLimitUs bounds the generator's p99 lateness. Beside a
	// calibrating daemon on two cores it reads 2–3.5 ms; past 10 ms the
	// open-loop percentiles would mostly measure the generator.
	lateLimitUs = 10000
)

// runServeRead measures read-only traffic against a live daemon: a
// closed loop with nproc connections and open-loop Poisson phases at
// the ladder's rates. Every served body is checked against DoLocal.
func runServeRead(ctx context.Context, cfg config, res *result) error {
	workers := runtime.NumCPU()
	model := filepath.Join(cfg.tmp, "model.json")
	if err := prepareModel(ctx, cfg, res, model); err != nil {
		return err
	}
	ops := readStream(cfg.seed, streamLen)
	ref, err := newReference(model, ops)
	if err != nil {
		return err
	}
	d, boots, err := bootSeries(ceerBin, setupBoots, func(int) []string {
		return []string{"-models", model, "-warmup"}
	})
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	l := &readLoad{base: d.base, ops: ops, ref: ref, check: true}
	cycles := max(1, cfg.seconds/cycleSeconds)
	cycle := cfg.duration() / time.Duration(cycles)
	phase := time.Duration((1 - closedShare) / float64(len(ladder)) * float64(cycle))
	var closed, allOpen []reqRec
	var wall time.Duration
	var perReqMs []float64 // steal-corrected wall per request and connection, one per cycle
	stolen := 0.0
	daemonCPU := 0.0 // seconds the daemon spent on CPU during the closed loops
	open := make([][]reqRec, len(ladder))
	grew := make([]int, len(ladder))
	for c := 0; c < cycles; c++ {
		c0, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return err
		}
		clock := startStealClock()
		recs, w := l.closed(workers, time.Duration(closedShare*float64(cycle)), len(closed))
		cw, share := clock.elapsed()
		perReqMs, stolen = append(perReqMs, cw.Seconds()*1e3*float64(workers)/float64(len(recs))), stolen+share
		c1, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return err
		}
		closed, wall, daemonCPU = append(closed, recs...), wall+w, daemonCPU+c1-c0
		for i, rate := range ladder {
			recs := l.open(workers, arrivals(cfg.seed+uint64(c*len(ladder)+i), float64(rate), phase.Seconds()), len(allOpen))
			if backlogGrows(backlogs(recs), float64(workers)) {
				grew[i]++
			}
			open[i] = append(open[i], recs...)
			allOpen = append(allOpen, recs...)
		}
	}
	account(res, closed)
	account(res, allOpen)
	cs := summarize(latUs(closed))
	rps := float64(len(closed)) / wall.Seconds()
	boots.report(res)
	res.setE2E("cpu_ms_per_op", "ms", daemonCPU*1e3/float64(len(closed)))
	res.setE2E("wall_ms_per_op", "ms", median(perReqMs))
	res.value("steal_share (mean over closed phases)", "fraction", stolen/float64(cycles), cycles)
	res.value("daemon_cpu_us_per_req", "us", daemonCPU*1e6/float64(len(closed)), len(closed))
	res.value("rps", "req/s", rps, len(closed))
	res.timing("p50_us/p99_us (closed)", "us", cs)

	slo := 0
	for i, rate := range ladder {
		s := summarize(latUs(open[i]))
		grows := 2*grew[i] > cycles // in most of its phases
		failed := countFailed(open[i])
		res.note("open %6d req/s: p50 %.1f us, %s %.1f us, n=%d, backlog grew in %d/%d phases, failed %d",
			rate, s.P50, tailName(s.TailQ), s.Tail, s.N, grew[i], cycles, failed)
		if rate == openRate {
			res.timing("open_p50_us/open_p99_us", "us", s)
		}
		if s.TailQ > 0 && s.Tail <= latencyLimitUs && !grows && failed == 0 {
			slo = rate
		}
	}
	res.value(fmt.Sprintf("slo_rps (tail <= %d us)", latencyLimitUs), "req/s", float64(slo), len(ladder))
	if err := lateness(res, allOpen); err != nil {
		return err
	}

	if cfg.trace {
		l.tr = res.tr
		traced, _ := l.closed(workers, time.Duration(closedShare*float64(cfg.duration())), 0)
		account(res, traced)
		spanValidity(res, requestLayers(res, res.tr.snapshot()), traced, cs.P50)
		res.setLayer("serve.shed", "count", float64(countStatus(closed, http.StatusTooManyRequests)+countStatus(allOpen, http.StatusTooManyRequests)))
		if err := probeLayers(ctx, cfg, res, model, ref, ops[:2048], nil); err != nil {
			return err
		}
	}
	stopped = true
	return d.stop()
}

// prepareModel trains the workload's model at its seed and saves it to
// path. In a traced run the pipeline runs layer by layer, so the
// pipeline metrics are measured on every workload.
func prepareModel(ctx context.Context, cfg config, res *result, path string) error {
	if !cfg.trace {
		_, err := trainSaved(ctx, cfg.seed, runtime.NumCPU(), path)
		return err
	}
	c, err := trainTraced(ctx, res.tr, res.tr.newReq(), cfg.seed, runtime.NumCPU(), path)
	if err != nil {
		return err
	}
	pipelineLayers(res, res.tr.snapshot(), c)
	return nil
}

func account(res *result, recs []reqRec) {
	for _, r := range recs {
		res.op(r.ok)
	}
}

func latUs(recs []reqRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = float64(r.lat) / 1e3
	}
	return out
}

func backlogs(recs []reqRec) []int {
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i] = r.backlog
	}
	return out
}

func countFailed(recs []reqRec) int {
	n := 0
	for _, r := range recs {
		if !r.ok {
			n++
		}
	}
	return n
}

func countStatus(recs []reqRec, status int) int {
	n := 0
	for _, r := range recs {
		if r.status == status {
			n++
		}
	}
	return n
}

// lateness reports how late the open-loop generator started requests it
// was free to start on time (p99, or the highest tail the sample
// supports), and rejects the run when that exceeds lateLimitUs.
func lateness(res *result, recs []reqRec) error {
	var late []float64
	for _, r := range recs {
		late = append(late, float64(r.late)/1e3)
	}
	s := summarize(late)
	q := s.TailQ
	if beyond(len(late), 0.99) >= minBeyond {
		q = 0.99
	}
	p := rank(late, q) // summarize sorted late
	res.timing("loadgen.late_us", "us", s)
	res.value("loadgen.late_"+tailName(q)+"_us", "us", p, len(late))
	res.setLayer("loadgen.late_p99_us", "us", p)
	if p > lateLimitUs {
		return fmt.Errorf("invalid run: the open-loop generator started requests %.0f us late at %s (limit %d us)", p, tailName(q), lateLimitUs)
	}
	return nil
}

// requestLayers splits traced requests by kind into their layer times:
// the loopback round trip (http), the in-process handler, the compiled
// gather, and the derived socket (http − handler) and render (handler −
// gather) parts. It returns every traced request's parts.
func requestLayers(res *result, spans []span) []*reqParts {
	byID := map[int64]*reqParts{}
	for _, s := range spans {
		if s.Parent == 0 {
			if kind, ok := strings.CutPrefix(s.Name, "request."); ok {
				byID[s.Req] = &reqParts{kind: kind}
			}
		}
	}
	for _, s := range spans {
		r := byID[s.Req]
		if r == nil || s.Parent == 0 {
			continue
		}
		us := float64(s.dur()) / 1e3
		switch s.Name {
		case "http":
			r.http = us
		case "handler":
			r.handler = us
		case "gather":
			r.gather = us
		}
	}
	var all []*reqParts
	for _, r := range byID {
		all = append(all, r)
	}
	for _, k := range kinds {
		var h, hd, g, sock, rend []float64
		for _, r := range all {
			if r.kind == k {
				h, hd, g = append(h, r.http), append(hd, r.handler), append(g, r.gather)
				sock, rend = append(sock, r.socket()), append(rend, r.render())
			}
		}
		res.setLayer("serve.http_us."+k, "us", median(h))
		res.setLayer("serve.handler_us."+k, "us", median(hd))
		res.setLayer("ceer.gather_us."+k, "us", median(g))
		res.setLayer("serve.socket_us."+k, "us", median(sock))
		res.setLayer("serve.render_us."+k, "us", median(rend))
	}
	return all
}

// reqParts are one traced request's layer times in microseconds.
type reqParts struct {
	kind                  string
	http, handler, gather float64
}

func (r *reqParts) socket() float64 { return r.http - r.handler }
func (r *reqParts) render() float64 { return r.handler - r.gather }

// spanValidity compares the traced requests with the untraced median
// latency: coverage is the sum of the stage medians (open-loop queueing,
// socket, render, gather) over the untraced p50; overhead is the traced
// median latency over it, minus one.
func spanValidity(res *result, parts []*reqParts, traced []reqRec, untracedP50Us float64) {
	var q, sock, rend, g []float64
	for _, r := range traced {
		q = append(q, float64(r.queue)/1e3)
	}
	for _, p := range parts {
		sock, rend, g = append(sock, p.socket()), append(rend, p.render()), append(g, p.gather)
	}
	cov := (median(q) + median(sock) + median(rend) + median(g)) / untracedP50Us
	res.setLayer("spans.coverage", "fraction", cov)
	res.setLayer("spans.overhead", "fraction", median(latUs(traced))/untracedP50Us-1)
	res.value("stage medians sum / untraced p50", "fraction", cov, len(parts))
}

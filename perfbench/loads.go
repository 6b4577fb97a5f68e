package main

import (
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ceer"
	"ceer/internal/serve/loadgen"
)

// reqRec is one request's outcome. In the closed loop lat runs from send
// to completion; in the open loop from the request's due time, so a
// stall also charges the requests queued behind it.
type reqRec struct {
	op      int
	seq     int // position in the phase's schedule (open loop)
	status  int
	ok      bool
	lat     int64 // ns
	queue   int64 // ns from due to sent (open loop)
	late    int64 // ns the generator started the request after it was due (open loop)
	backlog int   // requests due but not yet started when this one started (open loop)
}

// readLoad drives the read mix against a daemon. ref checks bodies (when
// check is set) and, with a tracer, replays each request's handler and
// compiled gather in-process under the same request id.
type readLoad struct {
	base  string
	ops   []loadgen.Op
	ref   *reference
	check bool
	tr    *tracer
}

// issue sends stream op i on c and reports the status, whether the
// request succeeded (2xx and, when checked, the reference body) and when
// the response was complete. Traced replays run after that instant, so
// they never count in the request's latency.
func (l *readLoad) issue(c *client, i int, rec *ceer.Recommendation) (int, bool, time.Time) {
	op := l.ops[i]
	cl := l.ref.calls[i]
	id := l.tr.newReq()
	root := l.tr.begin(cl.span, id, 0)
	sp := l.tr.begin("http", id, root)
	status := c.do(op.Method, op.Path, op.RawQuery, nil)
	done := time.Now()
	l.tr.end(sp)
	ok := status/100 == 2
	if ok && l.check {
		ok = bodyHash(c.body.Bytes()) == cl.want
	}
	if l.tr != nil {
		sp = l.tr.begin("handler", id, root)
		out := l.ref.target.Do(0, cl.req)
		l.tr.end(sp)
		sp = l.tr.begin("gather", id, root)
		err := l.ref.gather(cl, rec)
		l.tr.end(sp)
		ok = ok && out.Status == http.StatusOK && out.BodyHash == cl.want && err == nil
	}
	l.tr.end(root)
	return status, ok, done
}

// closed runs workers back-to-back clients for d, walking the stream
// from op start, and returns every outcome and the phase wall time.
func (l *readLoad) closed(workers int, d time.Duration, start int) ([]reqRec, time.Duration) {
	var next atomic.Int64
	per := make([][]reqRec, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(l.base)
			defer c.close()
			var rec ceer.Recommendation
			out := make([]reqRec, 0, 1<<16)
			for time.Now().Before(deadline) {
				i := (start + int(next.Add(1)-1)) % len(l.ops)
				s := time.Now()
				status, ok, done := l.issue(c, i, &rec)
				out = append(out, reqRec{op: i, status: status, ok: ok, lat: done.Sub(s).Nanoseconds()})
			}
			per[w] = out
		}(w)
	}
	wg.Wait()
	return merge(per), time.Since(t0)
}

// open runs the arrival schedule arr (ns offsets) with workers clients,
// walking the stream from op start. A client takes the next request,
// waits until it is due, and sends it; when every client is busy, due
// requests queue and their latency grows from the due time.
func (l *readLoad) open(workers int, arr []int64, start int) []reqRec {
	var next atomic.Int64
	per := make([][]reqRec, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(l.base)
			defer c.close()
			var rec ceer.Recommendation
			out := make([]reqRec, 0, len(arr)/workers+16)
			for {
				j := int(next.Add(1) - 1)
				if j >= len(arr) {
					break
				}
				due := t0.Add(time.Duration(arr[j]))
				free := time.Now()
				waitUntil(due)
				sent := time.Now()
				r := reqRec{op: (start + j) % len(l.ops), seq: j}
				if free.Before(due) {
					r.late = sent.Sub(due).Nanoseconds()
				}
				r.backlog = dueBy(arr, sent.Sub(t0).Nanoseconds()) - j - 1
				if r.backlog < 0 {
					r.backlog = 0
				}
				var done time.Time
				r.status, r.ok, done = l.issue(c, r.op, &rec)
				r.queue = sent.Sub(due).Nanoseconds()
				r.lat = done.Sub(due).Nanoseconds()
				out = append(out, r)
			}
			per[w] = out
		}(w)
	}
	wg.Wait()
	out := merge(per)
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// spinWindow is how close to a due time the open-loop client stops
// sleeping and spins: a timer wake-up alone starts requests late.
const spinWindow = 150 * time.Microsecond

func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			time.Sleep(d - spinWindow)
		} else {
			runtime.Gosched()
		}
	}
}

// dueBy counts the arrivals due at or before offset t.
func dueBy(arr []int64, t int64) int {
	return sort.Search(len(arr), func(i int) bool { return arr[i] > t })
}

func merge(per [][]reqRec) []reqRec {
	var out []reqRec
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// backlogGrows reports whether the queue of due-but-unstarted requests
// grew over a phase: the mean backlog of its last quarter exceeds that
// of its first quarter by more than slack requests. backlog is in
// schedule order.
func backlogGrows(backlog []int, slack float64) bool {
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	return mean(backlog[len(backlog)-q:])-mean(backlog[:q]) > slack
}

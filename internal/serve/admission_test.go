package serve

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"ceer"
	"ceer/internal/serve/loadgen"
)

const quickQuery = "model=alexnet&config=1xP2"

// TestTokenBucketExactSequence pins the admission arithmetic under a
// virtual clock: rate 1 req/s, burst 1 starts full, so the outcomes at
// t=0, 0, 0.5s, 1.5s are admit, shed, shed, admit.
func TestTokenBucketExactSequence(t *testing.T) {
	vc := &vClock{}
	s := newTestServer(t, Options{RatePerSec: 1, Burst: 1, Clock: vc})

	steps := []struct {
		atNanos int64
		status  int
	}{
		{0, http.StatusOK},                        // burst token
		{0, http.StatusTooManyRequests},           // empty, no credit
		{500_000_000, http.StatusTooManyRequests}, // 0.5 tokens accrued
		{1_500_000_000, http.StatusOK},            // >= 1 token accrued
	}
	for i, st := range steps {
		vc.set(st.atNanos)
		status, body := s.DoLocal(http.MethodGet, "/v1/predict", quickQuery)
		if status != st.status {
			t.Fatalf("step %d (t=%dns): status %d, want %d (%s)", i, st.atNanos, status, st.status, body)
		}
	}
	if shed := s.met.eps[epPredict].shedRate.Load(); shed != 2 {
		t.Errorf("shedRate = %d, want 2", shed)
	}
}

// TestTokenBucketRefillDeterminism replays a Poisson arrival schedule
// (the loadgen's seeded stream) through two fresh servers on virtual
// clocks: the admit/shed decision sequence must be identical, and the
// overload must actually shed.
func TestTokenBucketRefillDeterminism(t *testing.T) {
	arrivals := loadgen.PoissonArrivals(7, 4000, 200)
	run := func() []int {
		vc := &vClock{}
		s := newTestServer(t, Options{RatePerSec: 1000, Burst: 2, Clock: vc})
		statuses := make([]int, len(arrivals))
		for i, at := range arrivals {
			vc.set(at)
			statuses[i], _ = s.DoLocal(http.MethodGet, "/v1/predict", quickQuery)
		}
		return statuses
	}
	a, b := run(), run()
	admitted, shed := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: run A status %d, run B status %d", i, a[i], b[i])
		}
		switch a[i] {
		case http.StatusOK:
			admitted++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("request %d: unexpected status %d", i, a[i])
		}
	}
	if admitted == 0 || shed == 0 {
		t.Errorf("want a mix of admits and sheds at 4x overload, got %d admitted / %d shed", admitted, shed)
	}
}

// TestQueueDepthCap saturates MaxInFlight with parked requests (via the
// afterAdmit test hook) and verifies the next request sheds with 429
// and the shed_queue counter moves.
func TestQueueDepthCap(t *testing.T) {
	s := newTestServer(t, Options{MaxInFlight: 2})
	park := make(chan struct{})
	admitted := make(chan struct{}, 2)
	s.afterAdmit = func(int) {
		admitted <- struct{}{}
		<-park
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, _ := s.DoLocal(http.MethodGet, "/v1/predict", quickQuery); status != http.StatusOK {
				t.Errorf("parked request: status %d", status)
			}
		}()
	}
	<-admitted
	<-admitted

	// Both slots held: the third request must shed on queue depth.
	s.afterAdmit = nil
	if status, _ := s.DoLocal(http.MethodGet, "/v1/predict", quickQuery); status != http.StatusTooManyRequests {
		t.Errorf("over-cap request: status %d, want 429", status)
	}
	if n := s.met.eps[epPredict].shedQueue.Load(); n != 1 {
		t.Errorf("shedQueue = %d, want 1", n)
	}
	close(park)
	wg.Wait()
}

// TestGracefulDrain parks in-flight requests, starts Shutdown, and
// verifies: new work answers 503, /healthz reports draining, the parked
// requests complete with 200 (never dropped), and Shutdown returns nil.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, Options{})
	park := make(chan struct{})
	admitted := make(chan struct{}, 3)
	s.afterAdmit = func(int) {
		admitted <- struct{}{}
		<-park
	}

	statuses := make([]int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = s.DoLocal(http.MethodGet, "/v1/predict", quickQuery)
		}(i)
	}
	for i := 0; i < 3; i++ {
		<-admitted
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Wait for the draining flag so the refusal below is deterministic.
	for !s.draining.Load() {
		time.Sleep(100 * time.Microsecond)
	}

	if status, _ := s.DoLocal(http.MethodGet, "/v1/predict", quickQuery); status != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", status)
	}
	m := getJSON(t, s, "/healthz", "", http.StatusOK)
	if m["status"] != "draining" {
		t.Errorf("healthz during drain: %v", m["status"])
	}

	close(park)
	wg.Wait()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i, status := range statuses {
		if status != http.StatusOK {
			t.Errorf("in-flight request %d finished with %d, want 200", i, status)
		}
	}
}

// TestRequestTimeout drives a handler on a clock that leaps past the
// request budget between admission and finish: the response must be 504
// and the timeouts counter must move.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Options{
		RequestTimeout: time.Millisecond,
		Clock:          &stepClock{step: 2_000_000}, // +2ms per reading
	})
	status, body := s.DoLocal(http.MethodGet, "/v1/predict", quickQuery)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", status, body)
	}
	if n := s.met.eps[epPredict].timeouts.Load(); n != 1 {
		t.Errorf("timeouts = %d, want 1", n)
	}
}

// TestHotSwapHammer swaps the compiled tables while readers hammer the
// predict and recommend paths. The swapped-in tables come from a
// save/load round trip of the same system, so every response must be
// byte-identical to the pre-swap reference no matter which generation a
// request lands on — a torn or inconsistent swap shows up as a body
// mismatch, and `go test -race` catches unsynchronized access.
func TestHotSwapHammer(t *testing.T) {
	sys := testSystem(t)
	s := newTestServer(t, Options{})

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sys2, err := ceer.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	comp2, err := sys2.Compiled(32)
	if err != nil {
		t.Fatal(err)
	}
	comp1 := s.Tables()

	queries := []struct{ path, q string }{
		{"/v1/predict", "model=alexnet"},
		{"/v1/predict", "model=resnet-50&config=2xP3"},
		{"/v1/recommend", "model=vgg-16&objective=cost"},
	}
	want := make([]string, len(queries))
	for i, qq := range queries {
		status, body := s.DoLocal(http.MethodGet, qq.path, qq.q)
		if status != http.StatusOK {
			t.Fatalf("reference %s?%s: status %d", qq.path, qq.q, status)
		}
		want[i] = string(body)
	}

	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Install(comp2)
			s.Install(comp1)
		}
	}()

	const readers, rounds = 4, 50
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				i := (r + n) % len(queries)
				status, body := s.DoLocal(http.MethodGet, queries[i].path, queries[i].q)
				if status != http.StatusOK {
					t.Errorf("reader %d round %d: status %d", r, n, status)
					return
				}
				if string(body) != want[i] {
					t.Errorf("reader %d round %d: body diverged under hot swap", r, n)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	<-swapperDone
	if g := s.Generation(); g == 0 {
		t.Error("swapper never ran")
	} else {
		t.Logf("hammer: %d generations", g)
	}
}

// TestHotSwapHammerDistinctGenerations alternates Install between the
// tables of two different predictors (seeds 1 and 2) while readers
// hammer every hot response shape. Each body must equal, in full, the
// reference body of one of the two generations — a request that read
// one generation's tables and another's pre-rendered bytes matches
// neither — and every generation a reader loads pairs its number with
// its own tables.
func TestHotSwapHammerDistinctGenerations(t *testing.T) {
	var systems [2]*ceer.System
	var comps [2]*ceer.CompiledSystem
	for i, seed := range []uint64{1, 2} {
		sys, err := ceer.Train(ceer.TrainOptions{Seed: seed, ProfileIterations: 30, CommIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		if comps[i], err = sys.Compiled(32); err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	queries := []struct{ path, q string }{
		{"/v1/predict", "model=alexnet"},
		{"/v1/predict", "model=inception-v3&pricing=market&samples=977"},
		{"/v1/predict", "model=resnet-50&config=2xP3"},
		{"/v1/recommend", "model=vgg-16&objective=cost"},
		{"/v1/recommend", "model=resnet-152&objective=time&max_hourly_usd=10"},
	}
	var want [2][]string
	for i := range systems {
		ref, err := New(systems[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, qq := range queries {
			status, body := ref.DoLocal(http.MethodGet, qq.path, qq.q)
			if status != http.StatusOK {
				t.Fatalf("reference %s?%s: status %d", qq.path, qq.q, status)
			}
			want[i] = append(want[i], string(body))
		}
	}
	for j, qq := range queries {
		if want[0][j] == want[1][j] {
			t.Fatalf("%s?%s: both generations answer the same bytes; the hammer could not tell them apart", qq.path, qq.q)
		}
	}

	s, err := New(systems[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Install(comps[1])
			s.Install(comps[0])
		}
	}()

	const readers, rounds = 4, 60
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				if gen := s.cur.Load(); gen.comp != comps[gen.num%2] {
					t.Errorf("reader %d: generation %d published with the other generation's tables", r, gen.num)
					return
				}
				j := (r + n) % len(queries)
				status, body := s.DoLocal(http.MethodGet, queries[j].path, queries[j].q)
				if status != http.StatusOK {
					t.Errorf("reader %d round %d: status %d", r, n, status)
					return
				}
				if b := string(body); b != want[0][j] && b != want[1][j] {
					t.Errorf("reader %d round %d: %s?%s matches neither generation:\n%s", r, n, queries[j].path, queries[j].q, body)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	<-swapperDone
	t.Logf("hammer: %d generations", s.Generation())
}

// TestInstallNumbersSerially: concurrent Installs each publish a
// distinct generation number, with none skipped.
func TestInstallNumbersSerially(t *testing.T) {
	s := newTestServer(t, Options{})
	comp := s.Tables()
	const workers, each = 4, 25
	nums := make(chan uint64, workers*each) // one slot per Install
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				nums <- s.Install(comp)
			}
		}()
	}
	wg.Wait()
	close(nums)
	seen := make(map[uint64]bool)
	for n := range nums {
		if seen[n] {
			t.Errorf("generation %d published twice", n)
		}
		seen[n] = true
	}
	if got := s.Generation(); got != workers*each || len(seen) != workers*each {
		t.Errorf("after %d Installs: generation %d, %d distinct numbers", workers*each, got, len(seen))
	}
}

package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"ceer/internal/trace"
)

func TestSelfTimesNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: union 10..60
		{ID: 4, Parent: 2, Name: "a.x", Start: 15, End: 25},
		{ID: 5, Parent: 2, Name: "a.y", Start: 35, End: 50}, // runs past its parent: counts 35..40
		{ID: 6, Parent: 1, Name: "c", Start: 90, End: 120},  // clipped to 90..100
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root": 100 - 50 - 10, // children cover 10..60 and 90..100
		"a":    30 - 10 - 5,
		"b":    30,
		"a.x":  10,
		"a.y":  15,
		"c":    30,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	// Sequential, non-overlapping children inside their parents: the self
	// times of every span add up to the root's duration exactly.
	spans := []span{
		{ID: 1, Name: "train", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "profile", Start: 0, End: 600},
		{ID: 3, Parent: 1, Name: "fit", Start: 600, End: 900},
		{ID: 4, Parent: 3, Name: "solve", Start: 650, End: 800},
	}
	total := int64(0)
	for _, v := range selfTimes(spans) {
		total += v
	}
	if total != 1000 {
		t.Fatalf("self times sum to %d, want 1000", total)
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", tr.newReq(), 0); id != 0 {
		t.Fatalf("nil tracer begin = %d, want 0", id)
	}
	tr.end(0)
	if s := tr.snapshot(); s != nil {
		t.Fatalf("nil tracer recorded %v", s)
	}
}

func TestSummarizePercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		tailQ     float64
		p50, tail float64
	}{
		{n: 5, tailQ: 0, p50: 3},
		{n: 99, tailQ: 0, p50: 50},
		{n: 100, tailQ: 0.9, p50: 50, tail: 90},
		{n: 999, tailQ: 0.9, p50: 500, tail: 900},
		{n: 1000, tailQ: 0.99, p50: 500, tail: 990},
		{n: 9999, tailQ: 0.99, p50: 5000, tail: 9900},
		{n: 10000, tailQ: 0.999, p50: 5000, tail: 9990},
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n || !exactEq(s.TailQ, tc.tailQ) || !exactEq(s.P50, tc.p50) || !exactEq(s.Tail, tc.tail) {
			t.Errorf("n=%d: got %+v, want tail q %v p50 %v tail %v", tc.n, s, tc.tailQ, tc.p50, tc.tail)
		}
		if s.TailQ > 0 && beyond(s.N, s.TailQ) < minBeyond {
			t.Errorf("n=%d: %s leaves %d samples beyond it", tc.n, tailName(s.TailQ), beyond(s.N, s.TailQ))
		}
	}
	if got := tailName(0.999); got != "p99.9" {
		t.Fatalf("tailName(0.999) = %q", got)
	}
}

func TestBacklogGrows(t *testing.T) {
	flat := make([]int, 400)
	for i := range flat {
		flat[i] = i % 3 // jitter, no trend
	}
	growing := make([]int, 400)
	for i := range growing {
		growing[i] = i / 20
	}
	spike := make([]int, 400)
	for i := 150; i < 250; i++ {
		spike[i] = 40 // a stall that drains again
	}
	for _, tc := range []struct {
		name string
		b    []int
		want bool
	}{
		{"flat", flat, false},
		{"growing", growing, true},
		{"drained spike", spike, false},
		{"too short", []int{0, 9, 99}, false},
	} {
		if got := backlogGrows(tc.b, 2); got != tc.want {
			t.Errorf("%s: backlogGrows = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRequestStreamDeterministic(t *testing.T) {
	a, b := readStream(7, 500), readStream(7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request streams")
	}
	if reflect.DeepEqual(a, readStream(8, 500)) {
		t.Fatal("different seeds gave the same request stream")
	}
	seen := map[string]int{}
	for _, op := range a {
		seen[kindOf(op)]++
	}
	for _, k := range kinds {
		if seen[k] == 0 {
			t.Errorf("no %s requests in 500 ops: %v", k, seen)
		}
	}
}

func TestArrivalScheduleDeterministic(t *testing.T) {
	a, b := arrivals(3, 1000, 2), arrivals(3, 1000, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different Poisson schedules")
	}
	if len(a) != 2000 {
		t.Fatalf("len = %d, want 2000", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not cumulative at %d", i)
		}
	}
	if reflect.DeepEqual(a, arrivals(4, 1000, 2)) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestDriftedObsDeterministic(t *testing.T) {
	spec := driftSpec{Seed: 5, Iterations: 3, CNNs: []string{"alexnet"}, Workers: 2}
	a, dev, err := driftedObs(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := driftedObs(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different drifted-observation bytes")
	}
	spec.Seed = 6
	c, _, err := driftedObs(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same drifted observations")
	}
	obs, err := trace.ReadObsLog(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	scaled := 0
	for _, o := range obs {
		if o.GPU == dev {
			scaled++
		}
	}
	if scaled == 0 || scaled == len(obs) {
		t.Fatalf("%d of %d observations on the drifted device %s", scaled, len(obs), dev)
	}
}

func TestSplitBatches(t *testing.T) {
	log := []byte("a\nb\nc\nd\ne\n")
	got := splitBatches(log, 2)
	want := [][]byte{[]byte("a\nb\n"), []byte("c\nd\n"), []byte("e\n")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitBatches = %q, want %q", got, want)
	}
	if !bytes.Equal(bytes.Join(got, nil), log) {
		t.Fatal("batches do not concatenate to the log")
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and ')'; utime=250, stime=50 ticks.
	line := "4242 (ceer) serve) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 8 0 100 0 0 18446744073709551615\n"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if !exactEq(got, 3) {
		t.Fatalf("parseProcStat = %v, want 3 s", got)
	}
	if _, err := parseProcStat("4242 (ceer) S 1"); err == nil {
		t.Fatal("short line parsed without error")
	}
}

// exactEq is exact float equality, for values the code under test must
// reproduce bit for bit.
func exactEq(a, b float64) bool { return a == b }

func TestFailedCheckFailsRun(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, tc := range []struct {
		name string
		ok   bool
		want int
	}{{"planted-pass", true, 0}, {"planted-fail", false, 1}} {
		workloads[tc.name] = func(_ context.Context, _ config, res *result) error {
			res.check(tc.ok, "planted check")
			return nil
		}
		code := run([]string{"--workload", tc.name, "--seconds", "1"})
		delete(workloads, tc.name)
		if code != tc.want {
			t.Errorf("%s: exit status %d, want %d", tc.name, code, tc.want)
		}
	}
}

func TestParseCPUTicks(t *testing.T) {
	// guest and guest_nice (the last two) are already inside user and nice.
	total, steal, err := parseCPUTicks("cpu  100 5 20 800 3 0 2 70 40 0")
	if err != nil {
		t.Fatal(err)
	}
	if total != 1000 || steal != 70 {
		t.Fatalf("parseCPUTicks = total %d steal %d, want 1000 and 70", total, steal)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, _, err := parseCPUTicks(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

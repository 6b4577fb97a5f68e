package ceer

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/zoo"
)

var (
	compiledOnce   sync.Once
	compiledGraphs []*graph.Graph
	compiledCore   *CompiledPredictor
	compiledErr    error
)

// compiled returns a package-shared compiled core over the whole zoo,
// built from the shared trained predictor. The graphs are built once:
// the compiled set is keyed by graph pointer identity, so tests must
// predict through these exact instances.
func compiled(t *testing.T) (*CompiledPredictor, []*graph.Graph) {
	t.Helper()
	p, _ := predictor(t)
	compiledOnce.Do(func() {
		for _, name := range zoo.Names() {
			compiledGraphs = append(compiledGraphs, zoo.MustBuild(name, 32))
		}
		compiledCore, compiledErr = Compile(p, compiledGraphs)
	})
	if compiledErr != nil {
		t.Fatal(compiledErr)
	}
	return compiledCore, compiledGraphs
}

// TestCompiledMatchesNaive is the correctness pin of the one
// prediction path: the zoo-wide compiled gather-and-sum must reproduce
// the naive per-node oracle on every zoo CNN × every registered device
// × k ∈ {1,2,4,8}, within 1e-9 relative.
func TestCompiledMatchesNaive(t *testing.T) {
	c, graphs := compiled(t)
	p := c.Predictor()
	for _, g := range graphs {
		for _, m := range gpu.All() {
			for _, k := range []int{1, 2, 4} {
				got, err := c.PredictIteration(g, m, k, Full)
				if err != nil {
					t.Fatalf("%s/%s/k=%d compiled: %v", g.Name, m, k, err)
				}
				naive, err := p.PredictIterationUnfolded(g, m, k, Full)
				if err != nil {
					t.Fatalf("%s/%s/k=%d naive: %v", g.Name, m, k, err)
				}
				checkIterEqual(t, g.Name+"/"+string(m)+"/compiled-vs-naive", got, naive)
			}
			// k=8 exceeds the trained comm range: NoComm still compares,
			// Full must fail on the compiled path like on the oracle.
			got, err := c.PredictIteration(g, m, 8, NoComm)
			if err != nil {
				t.Fatalf("%s/%s/k=8 compiled no-comm: %v", g.Name, m, err)
			}
			naive, err := p.PredictIterationUnfolded(g, m, 8, NoComm)
			if err != nil {
				t.Fatalf("%s/%s/k=8 naive no-comm: %v", g.Name, m, err)
			}
			checkIterEqual(t, g.Name+"/"+string(m)+"/k=8", got, naive)
			_, naiveErr := p.PredictIterationUnfolded(g, m, 8, Full)
			if naiveErr == nil {
				t.Fatalf("%s/%s: naive Full at untrained k=8 should error", g.Name, m)
			}
			if _, err := c.PredictIteration(g, m, 8, Full); err == nil {
				t.Errorf("%s/%s: compiled Full at untrained k=8 should error", g.Name, m)
			} else if err.Error() != naiveErr.Error() {
				t.Errorf("%s/%s: compiled k=8 error %q, want the oracle's %q", g.Name, m, err, naiveErr)
			}
		}
	}
}

// TestCompiledVariantsMatchNaive covers the ablation assembly through
// the zoo-wide compiled tables.
func TestCompiledVariantsMatchNaive(t *testing.T) {
	c, graphs := compiled(t)
	p := c.Predictor()
	for _, g := range graphs[:2] {
		for _, v := range []Variant{Full, NoComm, HeavyOnly, HeavyOnlyNoComm} {
			got, err := c.PredictIteration(g, gpu.V100, 2, v)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := p.PredictIterationUnfolded(g, gpu.V100, 2, v)
			if err != nil {
				t.Fatal(err)
			}
			checkIterEqual(t, g.Name+"/"+v.String(), got, naive)
		}
	}
}

// TestCompiledRecommendMatchesPredictor requires the zoo-wide compiled
// table scan to recommend exactly what a per-candidate sweep over the
// trained Predictor's naive oracle recommends: same winner, same
// feasibility, same candidate order, predictions within tolerance.
func TestCompiledRecommendMatchesPredictor(t *testing.T) {
	c, graphs := compiled(t)
	p := c.Predictor()
	cands := cloud.Configs(4)
	for _, g := range graphs {
		for _, obj := range []Objective{MinimizeCost, MinimizeTime} {
			cons := []Constraint{MaxHourlyBudget(20, 0), FitsGPUMemory(g)}
			got, err := c.Recommend(g, dataset.ImageNetSubset6400, cloud.OnDemand, cands, obj, cons...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naiveRecommend(p, g, dataset.ImageNetSubset6400, cloud.OnDemand, cands, obj, cons...)
			if err != nil {
				t.Fatal(err)
			}
			checkRecommendEqual(t, g.Name, got, want)
		}
	}
}

// TestCompiledPredictTrainingMatches spot-checks the end-to-end
// prediction (iterations, time, cost) through the compiled path
// against the oracle extended to an epoch.
func TestCompiledPredictTrainingMatches(t *testing.T) {
	c, graphs := compiled(t)
	p := c.Predictor()
	cfg := cloud.Config{GPU: gpu.V100, K: 4}
	for _, g := range graphs {
		got, err := c.PredictTraining(g, cfg, dataset.ImageNet, cloud.OnDemand)
		if err != nil {
			t.Fatal(err)
		}
		iter, err := p.PredictIterationUnfolded(g, cfg.GPU, cfg.K, Full)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.finishPrediction(g, cfg, dataset.ImageNet, cloud.OnDemand, iter)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations || got.CNN != want.CNN || got.Cfg != want.Cfg {
			t.Errorf("%s: metadata differs: %+v vs %+v", g.Name, got, want)
		}
		if d := relDiff(got.TotalSeconds, want.TotalSeconds); d > equivTol {
			t.Errorf("%s: TotalSeconds %v vs %v", g.Name, got.TotalSeconds, want.TotalSeconds)
		}
		if d := relDiff(got.CostUSD, want.CostUSD); d > equivTol {
			t.Errorf("%s: CostUSD %v vs %v", g.Name, got.CostUSD, want.CostUSD)
		}
	}
}

// TestCompiledNotCompiled pins the compiled set's boundary: graphs and
// devices outside it are errors, never silent zeros, and ForGraph
// covers an outside graph by compiling it alone (returning the
// receiver for a graph already in the set).
func TestCompiledNotCompiled(t *testing.T) {
	c, graphs := compiled(t)
	rebuilt := zoo.MustBuild(graphs[0].Name, 32) // same shape, different pointer
	if _, err := c.PredictIteration(rebuilt, gpu.V100, 1, Full); err == nil || !strings.Contains(err.Error(), "not in the compiled set") {
		t.Errorf("rebuilt graph: err = %v, want a not-in-the-compiled-set error", err)
	}
	if _, err := c.PredictIteration(graphs[0], gpu.ID("no-such-device"), 1, Full); err == nil || !strings.Contains(err.Error(), "not in the compiled set") {
		t.Errorf("unknown device: err = %v, want a not-in-the-compiled-set error", err)
	}
	var rec Recommendation
	if err := c.RecommendInto(&rec, rebuilt, dataset.ImageNet, cloud.OnDemand, cloud.Configs(4), MinimizeCost); err == nil {
		t.Error("RecommendInto on a rebuilt graph should error")
	}
	if _, err := c.ExplainNodes(rebuilt, gpu.V100); err == nil {
		t.Error("ExplainNodes on a rebuilt graph should error")
	}

	if same, err := c.ForGraph(graphs[0]); err != nil || same != c {
		t.Errorf("ForGraph of a compiled graph = (%p, %v), want the receiver %p", same, err, c)
	}
	alone, err := c.ForGraph(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if alone == c || alone.Predictor() != c.Predictor() || alone.Stats().Graphs != 1 {
		t.Errorf("ForGraph of an outside graph should compile it alone from the same predictor; stats %+v", alone.Stats())
	}
	got, err := alone.PredictIteration(rebuilt, gpu.V100, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.PredictIteration(graphs[0], gpu.V100, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("one-graph compile %+v differs from the zoo tables %+v", got, want)
	}
}

// TestCompiledAllocFree pins the compiled hot path at zero allocations:
// PredictIteration always (no warm-up needed), and RecommendInto once
// its Candidates buffer has capacity.
func TestCompiledAllocFree(t *testing.T) {
	c, graphs := compiled(t)
	g := graphs[0]
	var err error
	n := testing.AllocsPerRun(100, func() {
		_, err = c.PredictIteration(g, gpu.V100, 4, Full)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("compiled PredictIteration allocates %v per call, want 0", n)
	}

	cands := cloud.Configs(4)
	var rec Recommendation
	if err := c.RecommendInto(&rec, g, dataset.ImageNet, cloud.OnDemand, cands, MinimizeCost); err != nil {
		t.Fatal(err)
	}
	n = testing.AllocsPerRun(100, func() {
		err = c.RecommendInto(&rec, g, dataset.ImageNet, cloud.OnDemand, cands, MinimizeCost)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("compiled RecommendInto allocates %v per sweep, want 0", n)
	}
}

// TestCompiledStats sanity-checks the reported table dimensions.
func TestCompiledStats(t *testing.T) {
	c, graphs := compiled(t)
	s := c.Stats()
	if s.Graphs != len(graphs) {
		t.Errorf("Stats.Graphs = %d, want %d", s.Graphs, len(graphs))
	}
	if s.Devices != len(gpu.All()) {
		t.Errorf("Stats.Devices = %d, want %d", s.Devices, len(gpu.All()))
	}
	if s.Classes <= 0 || s.Pairs < s.Graphs || s.BuildEvals <= 0 || s.TableBytes <= 0 {
		t.Errorf("implausible stats: %+v", s)
	}
	t.Logf("compiled stats: %+v", s)
}

// TestCompiledBoxHotSwapRace hammers the compiled read path from 8
// goroutines while the table is rebuilt and atomically swapped — the
// serve-mode reload scenario. Run under -race (make race), this proves
// the immutable-table + atomic-pointer contract: readers never observe
// a partially built table.
func TestCompiledBoxHotSwapRace(t *testing.T) {
	c, graphs := compiled(t)
	p := c.Predictor()

	var box CompiledBox
	box.Store(c)

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := graphs[r%len(graphs)]
			devs := gpu.All()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cur := box.Load()
				iter, err := cur.PredictIteration(g, devs[i%len(devs)], 1+i%4, Full)
				if err != nil {
					errCh <- err
					return
				}
				if !(iter.PerIterSeconds > 0) {
					errCh <- errors.New("non-positive prediction under swap")
					return
				}
			}
		}(r)
	}
	// Rebuild and hot-swap the table repeatedly under the readers.
	for i := 0; i < 5; i++ {
		fresh, err := Compile(p, graphs)
		if err != nil {
			t.Fatal(err)
		}
		box.Store(fresh)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

package ceer

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
)

// Class kinds of the compiled per-(device, class) table.
const (
	kindHeavy  uint8 = iota // heavy with a trained model: times holds the regression value
	kindUnseen              // heavy without a model: times holds the light median, reported
	kindLight               // light GPU op: the light median
	kindCPU                 // CPU op: the CPU median
)

// CompiledPredictor is the one prediction path of a trained Predictor:
// every (device, signature class) time over a set of graphs is
// evaluated once at compile time into immutable flat arrays, and every
// (graph, device) op sum gathered from them, so every prediction and
// recommendation is a lookup plus Eq. (2)'s arithmetic and every
// explanation a gather over the class table. No mutex, no map lookups,
// and no allocations on the read path; a CompiledPredictor is
// immutable after Compile and safe for any number of concurrent
// readers. Hot-swap a rebuilt instance atomically through CompiledBox;
// a calibration refit derives its instance from the previous one,
// re-evaluating only the (device, op type) run it re-solved.
//
// Signatures are deduplicated across the whole graph set: classes
// shared by several CNNs, the common case in a CNN zoo, occupy one
// table slot. A graph outside the set is served by ForGraph, which
// compiles it alone from the same trained predictor.
//
// IterPrediction.UnseenHeavy values returned by the compiled path
// alias immutable compile-time storage; treat them as read-only.
type CompiledPredictor struct {
	p    *Predictor
	fold *graph.GlobalFold

	// devices holds the compiled device set sorted by ID, and meta what
	// the tables keep beside each ID.
	devices []gpu.ID
	meta    []deviceMeta

	nd, nc, ng, maxK int

	// kinds and times are the per-(device, class) tables, indexed
	// di*nc+ci: the class kind and the per-instance predicted seconds
	// (the regression value, or the light or CPU median).
	kinds []uint8
	times []float64

	// sums holds every (graph, device) op-sum at gi*nd+di, gathered
	// once at compile time, so a prediction is one lookup plus Eq. (2)'s
	// arithmetic.
	sums []opSums

	// comm holds the precomputed communication overhead per (graph,
	// device, k) at (gi*nd+di)*(maxK+1)+k; hasComm, per (device, k) at
	// di*(maxK+1)+k, records whether a comm model exists there.
	comm    []float64
	hasComm []bool

	buildEvals int
}

// deviceMeta is what the compiled tables keep per device beside its ID.
type deviceMeta struct {
	// family is the AWS family code, so the failure exit formats it
	// without a registry lookup.
	family string
	// degraded is the partial-coverage reason ("" = clean).
	degraded string
}

// Compile builds the compiled serving core for a trained predictor
// over a fixed set of graphs: it folds the graphs into one global
// signature-class table (graph.FoldAll), batch-evaluates every heavy
// class on every registered device (regress.PredictBatch, one
// struct-of-arrays matrix per (device, op type)), gathers every
// (graph, device) op sum, and precomputes the per-(graph, device, k)
// communication terms. Compile-time cost is amortized across every
// subsequent prediction; see Stats.
func Compile(p *Predictor, graphs []*graph.Graph) (*CompiledPredictor, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("ceer: compile with no graphs")
	}
	gf := graph.FoldAll(graphs)
	devices := append([]gpu.ID(nil), gpu.All()...)
	sort.Slice(devices, func(i, j int) bool { return devices[i] < devices[j] })

	c := &CompiledPredictor{
		p:       p,
		fold:    gf,
		devices: devices,
		meta:    make([]deviceMeta, len(devices)),
		nd:      len(devices),
		nc:      gf.Len(),
		ng:      gf.NumGraphs(),
	}
	for _, byK := range p.commModels {
		for k := range byK {
			if k > c.maxK {
				c.maxK = k
			}
		}
	}
	classes := gf.Classes()
	c.kinds = make([]uint8, c.nd*c.nc)
	c.times = make([]float64, c.nd*c.nc)
	for di, m := range devices {
		c.meta[di].family = m.Family()
		if reason, ok := p.Degraded(m); ok {
			c.meta[di].degraded = reason
		}
		byType := p.opModels[m]
		base := di * c.nc
		// Classify every class on this device, deferring heavy modeled
		// classes to batched evaluation below.
		for ci := range classes {
			t := classes[ci].Rep.Op.Type
			switch p.Class.Of(t) {
			case ops.HeavyGPU:
				if _, ok := byType[t]; ok {
					c.kinds[base+ci] = kindHeavy
				} else {
					c.kinds[base+ci] = kindUnseen
					c.times[base+ci] = p.LightMedian
				}
			case ops.LightGPU:
				c.kinds[base+ci] = kindLight
				c.times[base+ci] = p.LightMedian
			case ops.CPU:
				c.kinds[base+ci] = kindCPU
				c.times[base+ci] = p.CPUMedian
			}
		}
		// Evaluate each heavy (device, type) run as one batch.
		for start := 0; start < c.nc; {
			if c.kinds[base+start] != kindHeavy {
				start++
				continue
			}
			end, err := c.evalRun(di, start, byType[classes[start].Rep.Op.Type])
			if err != nil {
				return nil, err
			}
			c.buildEvals += end - start
			start = end
		}
	}

	c.sums = make([]opSums, c.ng*c.nd)
	for gi := 0; gi < c.ng; gi++ {
		for di := 0; di < c.nd; di++ {
			c.sums[gi*c.nd+di] = c.classSums(gi, di)
		}
	}

	// Communication terms, batched per (device, k) over the graphs'
	// parameter counts (one single-feature struct-of-arrays matrix).
	c.comm = make([]float64, c.ng*c.nd*(c.maxK+1))
	c.hasComm = make([]bool, c.nd*(c.maxK+1))
	params := make([]float64, c.ng)
	for gi := 0; gi < c.ng; gi++ {
		params[gi] = float64(gf.Graph(gi).Params)
	}
	vals := make([]float64, c.ng)
	for di, m := range devices {
		for k := 1; k <= c.maxK; k++ {
			cm, ok := p.commModels[m][k]
			if !ok {
				continue
			}
			c.hasComm[di*(c.maxK+1)+k] = true
			cm.Fit.PredictBatch(vals, params)
			for gi, v := range vals {
				if v < 0 {
					v = 0
				}
				c.comm[(gi*c.nd+di)*(c.maxK+1)+k] = v
			}
			c.buildEvals += c.ng
		}
	}
	return c, nil
}

// evalRun evaluates, with om, device di's run of classes that share
// class start's op type into the times table and returns the run's end.
// Classes are signature-sorted and a signature starts with its op type,
// so one type's classes are contiguous: the run is one struct-of-arrays
// batch through regress.PredictBatch, clamped at 0. Compile runs it over
// every heavy run, withRefit over the one run a refit re-solved.
func (c *CompiledPredictor) evalRun(di, start int, om *OpModel) (int, error) {
	classes := c.fold.Classes()
	t := classes[start].Rep.Op.Type
	end := start
	for end < c.nc && classes[end].Rep.Op.Type == t {
		end++
	}
	arity := om.Fit.NumFeatures
	feats := make([]float64, 0, (end-start)*arity)
	for ci := start; ci < end; ci++ {
		if len(classes[ci].Features) != arity {
			return 0, fmt.Errorf("ceer: compile: class %q has %d features, %s model wants %d",
				classes[ci].Sig, len(classes[ci].Features), t, arity)
		}
		feats = append(feats, classes[ci].Features...)
	}
	dst := c.times[di*c.nc+start : di*c.nc+end]
	om.Fit.PredictBatch(dst, feats)
	for i := range dst {
		if dst[i] < 0 {
			dst[i] = 0
		}
	}
	return end, nil
}

// withRefit returns the tables of p, a clone of the receiver's
// predictor with om re-solved, without recompiling: it copies times and
// sums, re-evaluates om's (device, op type) run, and re-gathers that
// device's op sum of every graph. Everything else (the fold, the device
// set and its metadata, kinds, the comm tables) is shared, since
// replacing a model that exists changes none of it. The result equals
// Compile(p, graphs) over the receiver's graphs while the device
// registry is unchanged.
func (c *CompiledPredictor) withRefit(p *Predictor, om *OpModel) (*CompiledPredictor, error) {
	next := *c
	next.p = p
	di := c.deviceIndex(om.GPU)
	start := slices.IndexFunc(c.fold.Classes(), func(gc graph.GlobalClass) bool { return gc.Rep.Op.Type == om.OpType })
	if di < 0 || start < 0 {
		return &next, nil // no table cell reads om
	}
	next.times = slices.Clone(c.times)
	if _, err := next.evalRun(di, start, om); err != nil {
		return nil, err
	}
	next.sums = slices.Clone(c.sums)
	for gi := 0; gi < c.ng; gi++ {
		next.sums[gi*c.nd+di] = next.classSums(gi, di)
	}
	return &next, nil
}

// deviceIndex returns the compiled index of m, or -1.
//
//hot:path
func (c *CompiledPredictor) deviceIndex(m gpu.ID) int {
	// Linear scan: the device set is small (a handful of registered
	// GPUs) and this avoids a map read on the serving path.
	for i, id := range c.devices {
		if id == m {
			return i
		}
	}
	return -1
}

// opSums is the k-independent op-sum of Eq. (2)'s parenthesized term
// for one (graph, device): everything except the communication
// overhead, in count-weighted form so any ablation variant can be
// assembled from it without re-walking the graph.
type opSums struct {
	// modeledHeavy is Σ count × prediction over heavy classes with a
	// trained model.
	modeledHeavy float64
	// unseenHeavy, light, cpu count instances estimated by medians.
	unseenHeavy int
	light       int
	cpu         int
	// unseenTypes lists the heavy types lacking a model, sorted. The
	// slice is shared compile-time storage; callers must not modify it.
	unseenTypes []ops.Type
}

// classSums gathers graph gi's op-sum on device di from the compiled
// tables: Σ count × table time over the graph's class pairs, with
// median-estimated instances counted for later assembly and the heavy
// types lacking a model collected, sorted. Compile runs it once per
// (graph, device) into the sums table.
func (c *CompiledPredictor) classSums(gi, di int) opSums {
	var s opSums
	base := di * c.nc
	classes := c.fold.Classes()
	for _, pc := range c.fold.PerGraph(gi) {
		switch c.kinds[base+pc.Class] {
		case kindHeavy:
			s.modeledHeavy += float64(pc.Count) * c.times[base+pc.Class]
		case kindUnseen:
			s.unseenHeavy += pc.Count
			if t := classes[pc.Class].Rep.Op.Type; !slices.Contains(s.unseenTypes, t) {
				s.unseenTypes = append(s.unseenTypes, t)
			}
		case kindLight:
			s.light += pc.Count
		case kindCPU:
			s.cpu += pc.Count
		}
	}
	sortTypes(s.unseenTypes)
	return s
}

// hasCommModel reports whether device di has a communication model for
// k GPUs.
//
//hot:path
func (c *CompiledPredictor) hasCommModel(di, k int) bool {
	return k >= 1 && k <= c.maxK && c.hasComm[di*(c.maxK+1)+k]
}

// assemble builds an IterPrediction from gathered sums plus the
// precomputed communication term: the light and CPU medians enter
// only in the Full and NoComm variants, the comm term only in Full and
// HeavyOnly.
//
//hot:path
func (c *CompiledPredictor) assemble(gi, di, k int, v Variant, s opSums) (IterPrediction, error) {
	var out IterPrediction
	out.HeavySeconds = s.modeledHeavy
	if v == Full || v == NoComm {
		out.HeavySeconds += float64(s.unseenHeavy) * c.p.LightMedian
		out.LightSeconds = float64(s.light) * c.p.LightMedian
		out.CPUSeconds = float64(s.cpu) * c.p.CPUMedian
	}
	if v == Full || v == HeavyOnly {
		if !c.hasCommModel(di, k) {
			//lint:ignore allocfree error construction on the failure exit only; the success path never reaches it
			return IterPrediction{}, fmt.Errorf("ceer: no communication model for %s k=%d", c.meta[di].family, k)
		}
		out.CommSeconds = c.comm[(gi*c.nd+di)*(c.maxK+1)+k]
	}
	out.PerIterSeconds = out.HeavySeconds + out.LightSeconds + out.CPUSeconds + out.CommSeconds
	if len(s.unseenTypes) > 0 {
		out.UnseenHeavy = s.unseenTypes
	}
	return out, nil
}

// PredictIteration predicts the per-iteration training time of a
// compiled graph on k GPUs of a compiled device, per Eq. (2)'s
// parenthesized term: a gather-and-sum over the flat class table plus
// one precomputed communication lookup. Graphs and devices outside
// the compiled set are errors; see ForGraph.
//
//hot:path
func (c *CompiledPredictor) PredictIteration(g *graph.Graph, m gpu.ID, k int, v Variant) (IterPrediction, error) {
	gi := c.fold.GraphIndex(g)
	if gi < 0 {
		//lint:ignore allocfree error construction on the failure exit only; the success path never reaches it
		return IterPrediction{}, fmt.Errorf("ceer: graph %q is not in the compiled set", g.Name)
	}
	di := c.deviceIndex(m)
	if di < 0 {
		//lint:ignore allocfree error construction on the failure exit only; the success path never reaches it
		return IterPrediction{}, fmt.Errorf("ceer: device %s is not in the compiled set", m)
	}
	return c.assemble(gi, di, k, v, c.sums[gi*c.nd+di])
}

// PredictTraining predicts the end-to-end training time and cost of one
// epoch of the dataset on the configuration, per Eq. (2).
func (c *CompiledPredictor) PredictTraining(g *graph.Graph, cfg cloud.Config, ds dataset.Dataset, pricing cloud.Pricing) (Prediction, error) {
	return c.PredictTrainingVariant(g, cfg, ds, pricing, Full)
}

// PredictTrainingVariant is PredictTraining with an ablation variant.
func (c *CompiledPredictor) PredictTrainingVariant(g *graph.Graph, cfg cloud.Config, ds dataset.Dataset, pricing cloud.Pricing, v Variant) (Prediction, error) {
	if !cfg.Valid() {
		return Prediction{}, fmt.Errorf("ceer: invalid config %s", cfg)
	}
	iter, err := c.PredictIteration(g, cfg.GPU, cfg.K, v)
	if err != nil {
		return Prediction{}, err
	}
	return c.p.finishPrediction(g, cfg, ds, pricing, iter)
}

// Recommend evaluates every candidate configuration for training the
// CNN over the dataset and returns the feasible one minimizing the
// objective — the runtime loop of Section IV-D. It returns an error if
// no candidate is feasible, together with every evaluated candidate so
// callers can show why nothing fit.
//
// Candidates on devices with degraded (partial-coverage) training data
// are labeled and only win when no cleanly-covered feasible candidate
// exists. A degraded device missing its communication model entirely
// is predicted without the comm term and marked infeasible rather than
// failing the sweep.
func (c *CompiledPredictor) Recommend(g *graph.Graph, ds dataset.Dataset, pricing cloud.Pricing,
	candidates []cloud.Config, obj Objective, constraints ...Constraint) (Recommendation, error) {
	var rec Recommendation
	err := c.RecommendInto(&rec, g, ds, pricing, candidates, obj, constraints...)
	return rec, err
}

// RecommendInto is Recommend writing into a caller-owned
// Recommendation, reusing rec.Candidates' capacity so a steady-state
// serving loop recommends with zero allocations. rec is fully
// overwritten.
func (c *CompiledPredictor) RecommendInto(rec *Recommendation, g *graph.Graph, ds dataset.Dataset,
	pricing cloud.Pricing, candidates []cloud.Config, obj Objective, constraints ...Constraint) error {
	if len(candidates) == 0 {
		return fmt.Errorf("ceer: no candidate configurations")
	}
	gi := c.fold.GraphIndex(g)
	if gi < 0 {
		return fmt.Errorf("ceer: graph %q is not in the compiled set", g.Name)
	}
	rec.Best = Candidate{}
	rec.Candidates = rec.Candidates[:0]
	bestScore, bestDegradedScore := math.Inf(1), math.Inf(1)
	var bestDegraded Candidate
	found, foundDegraded := false, false
	for _, cfg := range candidates {
		cand, err := c.candidate(gi, g, cfg, ds, pricing)
		if err != nil {
			return err
		}
		if cand.Feasible {
			for _, cons := range constraints {
				if !cons(cand.Prediction) {
					cand.Feasible = false
					break
				}
			}
		}
		if cand.Feasible {
			cand.Score = obj(cand.TotalSeconds, cand.CostUSD)
			switch {
			case cand.Degraded == "" && cand.Score < bestScore:
				bestScore = cand.Score
				rec.Best = cand
				found = true
			case cand.Degraded != "" && cand.Score < bestDegradedScore:
				bestDegradedScore = cand.Score
				bestDegraded = cand
				foundDegraded = true
			}
		}
		rec.Candidates = append(rec.Candidates, cand)
	}
	if !found && foundDegraded {
		rec.Best = bestDegraded
		found = true
	}
	if !found {
		return fmt.Errorf("ceer: no feasible configuration among %d candidates", len(candidates))
	}
	return nil
}

// PredictCandidate predicts one configuration of a compiled graph the
// way Recommend evaluates each candidate, before constraints and
// scoring: the full prediction of Eq. (2), with Degraded set to the
// device's partial-coverage reason. A degraded device missing the
// communication model for cfg.K is predicted without the comm term and
// marked infeasible instead of failing, so a sweep over every
// candidate answers where PredictTraining would stop.
func (c *CompiledPredictor) PredictCandidate(g *graph.Graph, cfg cloud.Config, ds dataset.Dataset, pricing cloud.Pricing) (Candidate, error) {
	gi := c.fold.GraphIndex(g)
	if gi < 0 {
		return Candidate{}, fmt.Errorf("ceer: graph %q is not in the compiled set", g.Name)
	}
	return c.candidate(gi, g, cfg, ds, pricing)
}

// candidate is the per-candidate evaluation shared by RecommendInto and
// PredictCandidate.
func (c *CompiledPredictor) candidate(gi int, g *graph.Graph, cfg cloud.Config, ds dataset.Dataset, pricing cloud.Pricing) (Candidate, error) {
	if !cfg.Valid() {
		return Candidate{}, fmt.Errorf("ceer: invalid config %s", cfg)
	}
	di := c.deviceIndex(cfg.GPU)
	if di < 0 {
		return Candidate{}, fmt.Errorf("ceer: device %s is not in the compiled set", cfg.GPU)
	}
	// A candidate predicted without its comm term is disqualified
	// instead of aborting the sweep.
	v, degraded := c.sweepVariant(di, cfg.K)
	cand := Candidate{Feasible: v == Full, Degraded: degraded}
	iter, err := c.assemble(gi, di, cfg.K, v, c.sums[gi*c.nd+di])
	if err != nil {
		return Candidate{}, err
	}
	if cand.Prediction, err = c.p.finishPrediction(g, cfg, ds, pricing, iter); err != nil {
		return Candidate{}, err
	}
	return cand, nil
}

// sweepVariant is how a sweep predicts device di on k GPUs, and the
// device's degraded reason ("" = clean): the full prediction of
// Eq. (2), except that a degraded device without a communication model
// for k is predicted NoComm rather than failing. Candidates and
// explanations both follow it.
func (c *CompiledPredictor) sweepVariant(di, k int) (Variant, string) {
	degraded := c.meta[di].degraded
	if degraded != "" && !c.hasCommModel(di, k) {
		return NoComm, degraded
	}
	return Full, degraded
}

// ForGraph returns a compiled predictor that covers g: the receiver
// when g is in its compiled set, otherwise g compiled alone from the
// same trained predictor, so the answer comes from the same model
// generation. A one-graph compile costs tens to hundreds of
// microseconds, so call ForGraph once per request or loop, never per
// candidate.
func (c *CompiledPredictor) ForGraph(g *graph.Graph) (*CompiledPredictor, error) {
	if c.fold.GraphIndex(g) >= 0 {
		return c, nil
	}
	return Compile(c.p, []*graph.Graph{g})
}

// Predictor returns the trained predictor the tables were compiled
// from.
func (c *CompiledPredictor) Predictor() *Predictor { return c.p }

// CompiledStats sizes the compiled artifact for reporting: how much
// table memory the zoo costs and how much evaluation work compilation
// front-loaded.
type CompiledStats struct {
	// Graphs, Devices, Classes count the compiled dimensions; Pairs is
	// the total gather length across all graph reductions.
	Graphs, Devices, Classes, Pairs int
	// BuildEvals is the number of regression rows evaluated at compile
	// time (heavy classes × devices plus comm cells × graphs) — the
	// work every later prediction skips.
	BuildEvals int
	// TableBytes approximates the resident size of the flat tables
	// (class times + kinds + op sums + comm + presence bits + reduction
	// pairs).
	TableBytes int
}

// Stats reports the compiled table's dimensions and build cost.
func (c *CompiledPredictor) Stats() CompiledStats {
	const (
		f64   = 8
		pairB = 16 // graph.ClassCount{int, int}
		sumB  = 56 // opSums{float64, 3 × int, []ops.Type}
	)
	return CompiledStats{
		Graphs:     c.ng,
		Devices:    c.nd,
		Classes:    c.nc,
		Pairs:      c.fold.Pairs(),
		BuildEvals: c.buildEvals,
		TableBytes: len(c.times)*f64 + len(c.kinds) + len(c.sums)*sumB + len(c.comm)*f64 + len(c.hasComm) + c.fold.Pairs()*pairB,
	}
}

// CompiledBox atomically publishes a CompiledPredictor to concurrent
// readers — the hot-swap point for serve-mode model reloads. Readers
// Load the current instance and use it for a whole request; a rebuild
// (retrain, new device, new graph set) Compiles off to the side, and a
// Calibrator refit derives the next tables from the ones it published
// (re-evaluating one (device, op type) run); either Stores the
// replacement. Both sides are wait-free; a reader holding
// the old instance keeps reading consistent (immutable) tables until
// it drops the reference.
type CompiledBox struct {
	v atomic.Pointer[CompiledPredictor]
}

// Store publishes c as the current compiled predictor.
func (b *CompiledBox) Store(c *CompiledPredictor) { b.v.Store(c) }

// Load returns the current compiled predictor, or nil before the first
// Store.
func (b *CompiledBox) Load() *CompiledPredictor { return b.v.Load() }

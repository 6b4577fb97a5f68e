package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"ceer"
	internal "ceer/internal/ceer"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/sim"
	"ceer/internal/zoo"
)

// trainSaved runs the paper's pipeline as a user does: ceer.TrainContext,
// then System.Compiled(32), then System.Save to path.
func trainSaved(ctx context.Context, seed uint64, workers int, path string) (*ceer.System, error) {
	sys, err := ceer.TrainContext(ctx, ceer.TrainOptions{Seed: seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	if _, err := sys.Compiled(zoo.DefaultBatch); err != nil {
		return nil, err
	}
	return sys, saveFile(path, sys.Save)
}

func saveFile(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		_ = f.Close() // the save error is the one to report
		return err
	}
	return f.Close()
}

// stageCounts are the work counts of one traced pipeline run.
type stageCounts struct {
	nodes, profileCells, commCells, samples, models, compileEvals, tableBytes, modelBytes int
}

// trainTraced runs the same pipeline as trainSaved, one layer call at a
// time, with a span around each call: zoo.Build over the training set,
// sim.Profiler.ProfileAll, Pipeline.CollectCommObs, the internal fit
// (ceer.Train over the bundle), ceer.Compile over the zoo, and
// Predictor.Save. The saved bytes equal trainSaved's for the same seed.
func trainTraced(ctx context.Context, tr *tracer, req int64, seed uint64, workers int, path string) (stageCounts, error) {
	var c stageCounts
	pl := internal.DefaultPipeline(seed)
	pl.Workers = workers
	names := zoo.TrainingSet()
	root := tr.begin("train", req, 0)
	defer tr.end(root)

	sp := tr.begin("graph.build", req, root)
	built := make(map[string]*graph.Graph, len(names))
	for _, name := range names {
		g, err := zoo.Build(name, pl.Batch)
		if err != nil {
			return c, err
		}
		built[name] = g
		c.nodes += g.Len()
	}
	tr.end(sp)
	prebuilt := func(name string, batch int64) (*graph.Graph, error) {
		if g, ok := built[name]; ok && batch == pl.Batch {
			return g, nil
		}
		return nil, fmt.Errorf("graph %s@%d was not built", name, batch)
	}

	sp = tr.begin("sim.profile", req, root)
	prof := &sim.Profiler{Seed: pl.Seed, Iterations: pl.ProfileIterations, Retain: pl.Retain, Workers: workers}
	bundle, err := prof.ProfileAll(ctx, prebuilt, names, pl.Batch, gpu.All())
	tr.end(sp)
	if err != nil {
		return c, err
	}
	c.profileCells = len(bundle.Profiles)
	c.samples = c.nodes * len(gpu.All()) * pl.ProfileIterations

	sp = tr.begin("sim.comm", req, root)
	commObs, err := pl.CollectCommObs(ctx, prebuilt, names)
	tr.end(sp)
	if err != nil {
		return c, err
	}
	c.commCells = len(commObs)

	sp = tr.begin("ceer.fit", req, root)
	pred, err := internal.Train(bundle, commObs)
	tr.end(sp)
	if err != nil {
		return c, err
	}
	c.models = len(pred.OpModels())

	zooGraphs := make([]*graph.Graph, 0, len(ceer.Models()))
	for _, name := range ceer.Models() {
		g, err := ceer.BuildModelCached(name, pl.Batch)
		if err != nil {
			return c, err
		}
		zooGraphs = append(zooGraphs, g)
	}
	sp = tr.begin("ceer.compile", req, root)
	comp, err := internal.Compile(pred, zooGraphs)
	tr.end(sp)
	if err != nil {
		return c, err
	}
	st := comp.Stats()
	c.compileEvals, c.tableBytes = st.BuildEvals, st.TableBytes

	sp = tr.begin("ceer.save", req, root)
	err = saveFile(path, pred.Save)
	tr.end(sp)
	if err != nil {
		return c, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return c, err
	}
	c.modelBytes = int(fi.Size())
	return c, nil
}

// pipelineStages are the traced pipeline's stage span names, in order.
var pipelineStages = []string{"graph.build", "sim.profile", "sim.comm", "ceer.fit", "ceer.compile", "ceer.save"}

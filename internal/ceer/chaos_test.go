package ceer

// Chaos tests: the resilience machinery must never change what a
// healthy campaign measures, and a faulted campaign must stay
// deterministic — same spec, same seed, same bytes, at any worker
// count.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/faults"
	"ceer/internal/gpu"
	"ceer/internal/jsonl"
	"ceer/internal/trace"
	"ceer/internal/trace/corrupt"
	"ceer/internal/zoo"
)

// chaosPolicy is the test retry policy: a real budget and backoff
// schedule with sleeping disabled, so retried campaigns run at full
// speed.
func chaosPolicy(seed uint64, retries int) Pipeline {
	pl := testPipeline(0)
	pl.Retry = DefaultRetryPolicy(seed, retries)
	pl.Retry.Sleep = func(time.Duration) {}
	return pl
}

func mustInjector(t *testing.T, spec *faults.Spec) *faults.Injector {
	t.Helper()
	in, err := faults.NewInjector(spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func savedBytes(t *testing.T, p *Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultFreeMatchesGolden is the no-regression gate of the
// resilience work: with no fault spec and no retry policy, the
// paper-default campaign must reproduce the pre-resilience predictor
// byte for byte (testdata/predictor_seed1_golden.json, the exact
// output of `ceer train -seed 1`).
func TestFaultFreeMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "predictor_seed1_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	pred, res, err := DefaultPipeline(1).TrainOn(context.Background(), zoo.Build, zoo.TrainingSet())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coverage.Complete() {
		t.Errorf("healthy campaign reported incomplete coverage: %s", res.Coverage)
	}
	if len(res.Bundle.Missing) != 0 {
		t.Errorf("healthy campaign recorded missing cells: %v", res.Bundle.Missing)
	}
	if got := savedBytes(t, pred); !bytes.Equal(got, want) {
		t.Error("fault-free predictor drifted from the pre-resilience golden bytes")
	}
}

// TestRetryPolicyAloneChangesNothing: arming the retry machinery with
// no faults to handle must be invisible in the results.
func TestRetryPolicyAloneChangesNothing(t *testing.T) {
	base, err := testPipeline(0).Campaign(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatal(err)
	}
	armed, err := chaosPolicy(11, 3).Campaign(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Bundle, armed.Bundle) || !reflect.DeepEqual(base.CommObs, armed.CommObs) {
		t.Error("an armed retry policy changed a healthy campaign's measurements")
	}
	if armed.Coverage.Retries != 0 || !armed.Coverage.Complete() {
		t.Errorf("healthy campaign coverage = %s", armed.Coverage)
	}
}

// TestChaosTransientDeterminism pins the seeded-chaos contract: under
// a 10% transient fault rate with retries, the campaign recovers fully
// and produces byte-identical results at 1 and 8 workers.
func TestChaosTransientDeterminism(t *testing.T) {
	spec := &faults.Spec{Seed: 99, TransientRate: 0.10}
	run := func(workers int) (*CampaignResult, []byte) {
		pl := chaosPolicy(11, 4)
		pl.Workers = workers
		pl.Faults = mustInjector(t, spec)
		res, err := pl.Campaign(context.Background(), zoo.Build, campaignNames)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := Train(res.Bundle, res.CommObs)
		if err != nil {
			t.Fatal(err)
		}
		return res, savedBytes(t, pred)
	}
	serial, serialJSON := run(1)
	parallel, parallelJSON := run(8)

	if serial.Coverage.Retries == 0 {
		t.Error("a 10% transient rate should have forced at least one retry")
	}
	if !serial.Coverage.Complete() {
		t.Errorf("transient faults within budget should leave full coverage, got %s", serial.Coverage)
	}
	if serial.Coverage != parallel.Coverage {
		t.Errorf("coverage differs across worker counts: %s vs %s", serial.Coverage, parallel.Coverage)
	}
	if !reflect.DeepEqual(serial.Bundle, parallel.Bundle) {
		t.Error("chaos bundle differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(serial.CommObs, parallel.CommObs) {
		t.Error("chaos comm observations differ between 1 and 8 workers")
	}
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Error("chaos predictor JSON differs between 1 and 8 workers")
	}

	// The recommendation downstream of the chaos campaign is equally
	// worker-independent.
	recFrom := func(data []byte) Recommendation {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		g := zoo.MustBuild("inception-v3", 32)
		rec, err := compileFor(t, p, g).Recommend(g, dataset.ImageNet,
			cloud.OnDemand, cloud.Configs(4), MinimizeCost)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a, b := recFrom(serialJSON), recFrom(parallelJSON)
	if a.Best.Cfg != b.Best.Cfg || !eqExact(a.Best.CostUSD, b.Best.CostUSD) {
		t.Errorf("recommendation differs across worker counts: %v vs %v", a.Best.Cfg, b.Best.Cfg)
	}
}

// TestChaosStragglerDelaysReachSleep: the campaign waits out every
// straggler delay the injector draws for an attempt it runs, through
// the retry policy's Sleep, at any worker count; and a wait whose
// context is cancelled ends the campaign with context.Canceled. The
// other chaos tests inject a no-op Sleep, so only this one sees a
// skipped wait.
func TestChaosStragglerDelaysReachSleep(t *testing.T) {
	const retries = 4
	inj := mustInjector(t, &faults.Spec{Seed: 21, TransientRate: 0.2, StragglerRate: 0.3, StragglerDelayMS: 7})
	pipeline := func(workers int, sleep func(time.Duration)) Pipeline {
		pl := chaosPolicy(11, retries)
		pl.Workers = workers
		pl.Faults = inj
		pl.Retry.BaseDelay = 0 // no backoff: straggler delays are all that sleep
		pl.Retry.Sleep = sleep
		return pl
	}

	// The attempts the campaign runs: each cell's, up to its first that
	// draws no fault, within the attempt budget.
	var want []time.Duration
	failed := 0
	for _, name := range campaignNames {
		for _, m := range gpu.All() {
			cells := []faults.Op{{Stage: "profile", CNN: name, Device: string(m)}}
			for k := 1; k <= testPipeline(0).MaxK; k++ {
				cells = append(cells, faults.Op{Stage: "comm", CNN: name, Device: string(m), K: k})
			}
			for _, op := range cells {
				for op.Attempt = 1; op.Attempt <= retries+1; op.Attempt++ {
					delay, err := inj.Inject(op)
					if delay > 0 {
						want = append(want, delay)
					}
					if err == nil {
						break
					}
					failed++
				}
			}
		}
	}
	if len(want) == 0 || failed == 0 {
		t.Fatalf("the spec drew %d straggler delays and %d failed attempts; want both", len(want), failed)
	}
	slices.Sort(want)

	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var slept []time.Duration
		pl := pipeline(workers, func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		})
		res, err := pl.Campaign(context.Background(), zoo.Build, campaignNames)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(slept)
		if !slices.Equal(slept, want) {
			t.Errorf("workers=%d: slept %d straggler delays, want the %d the injector drew", workers, len(slept), len(want))
		}
		if res.Coverage.Retries != failed {
			t.Errorf("workers=%d: coverage counts %d failed attempts, want %d", workers, res.Coverage.Retries, failed)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := pipeline(1, func(time.Duration) { cancel() }).Campaign(ctx, zoo.Build, campaignNames)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("a straggler wait whose context was cancelled ended the campaign with %v, want context.Canceled", err)
	}
}

// TestChaosPermanentDeviceDegrades drives the graceful-degradation
// journey: every cell of one device fails permanently, yet the
// campaign completes, training succeeds, the device is flagged
// degraded, and the recommender routes around it.
func TestChaosPermanentDeviceDegrades(t *testing.T) {
	pl := chaosPolicy(11, 2)
	pl.Faults = mustInjector(t, &faults.Spec{Seed: 5, PermanentDevices: []string{string(gpu.M60)}})
	pred, res, err := pl.TrainOn(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatalf("a permanently failing device must degrade, not abort: %v", err)
	}
	if res.Coverage.Complete() {
		t.Fatal("coverage should be incomplete with a dead device")
	}
	wantMissing := len(campaignNames)           // profile cells
	wantMissing += len(campaignNames) * pl.MaxK // comm cells
	if got := len(res.Bundle.MissingForGPU(gpu.M60)); got != wantMissing {
		t.Errorf("m60 missing cells = %d, want %d", got, wantMissing)
	}
	if got := res.Coverage.ProfileMissing; got != len(campaignNames) {
		t.Errorf("profile missing = %d, want %d", got, len(campaignNames))
	}

	reason, degraded := pred.Degraded(gpu.M60)
	if !degraded || reason == "" {
		t.Fatalf("m60 should be flagged degraded, got (%q, %v)", reason, degraded)
	}
	for _, m := range gpu.All() {
		if m == gpu.M60 {
			continue
		}
		if r, d := pred.Degraded(m); d {
			t.Errorf("%s wrongly flagged degraded: %s", m, r)
		}
	}

	// The degraded flag survives persistence.
	loaded, err := Load(bytes.NewReader(savedBytes(t, pred)))
	if err != nil {
		t.Fatal(err)
	}
	if _, d := loaded.Degraded(gpu.M60); !d {
		t.Error("degraded flag lost across save/load")
	}

	// Recommend routes around the degraded device: the winner is clean,
	// and every m60 candidate is labeled and infeasible (its comm model
	// never trained).
	g := zoo.MustBuild("inception-v3", 32)
	rec, err := compileFor(t, loaded, g).Recommend(g, dataset.ImageNet,
		cloud.OnDemand, cloud.Configs(4), MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best.Cfg.GPU == gpu.M60 || rec.Best.Degraded != "" {
		t.Errorf("best candidate %v should be a clean device", rec.Best.Cfg)
	}
	for _, c := range rec.Candidates {
		if c.Cfg.GPU != gpu.M60 {
			continue
		}
		if c.Degraded == "" {
			t.Errorf("m60 candidate %v lacks its degraded label", c.Cfg)
		}
		if c.Feasible {
			t.Errorf("m60 candidate %v should be infeasible without a comm model", c.Cfg)
		}
	}
}

// TestChaosPreemptionCheckpointResume is the preemption journey: run 1
// is killed by an injected preemption, run 2 reuses the checkpoint,
// skips every completed cell, and finishes with the exact bytes an
// uninterrupted fault-free campaign produces.
func TestChaosPreemptionCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	mk := func(spec *faults.Spec) Pipeline {
		pl := chaosPolicy(11, 2)
		pl.CheckpointPath = ckpt
		pl.Faults = mustInjector(t, spec)
		return pl
	}
	preempt := &faults.Spec{Seed: 1, Preempt: []faults.PreemptPoint{
		{Stage: "comm", CNN: campaignNames[1], Device: string(gpu.T4), K: 2, Attempt: 1},
	}}

	_, err := mk(preempt).Campaign(context.Background(), zoo.Build, campaignNames)
	if !faults.IsPreempted(err) {
		t.Fatalf("run 1 should die preempted, got %v", err)
	}

	// Run 2: same spec, same checkpoint. The interrupted cell resumes at
	// attempt 2, so the one-shot preemption point cannot re-fire.
	res, err := mk(preempt).Campaign(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatalf("resumed run should complete, got %v", err)
	}
	if res.Coverage.Resumed == 0 {
		t.Error("run 2 restored no cells from the checkpoint")
	}
	if !res.Coverage.Complete() {
		t.Errorf("resumed campaign incomplete: %s", res.Coverage)
	}

	// The stitched-together result is bit-identical to an uninterrupted
	// fault-free campaign of the same configuration.
	clean, err := chaosPolicy(11, 2).Campaign(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Bundle, res.Bundle) {
		t.Error("resumed bundle differs from an uninterrupted run")
	}
	if !reflect.DeepEqual(clean.CommObs, res.CommObs) {
		t.Error("resumed comm observations differ from an uninterrupted run")
	}
	a, err := Train(clean.Bundle, clean.CommObs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(res.Bundle, res.CommObs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedBytes(t, a), savedBytes(t, b)) {
		t.Error("resumed predictor JSON differs from an uninterrupted run")
	}
}

// TestCheckpointSkipsCompletedCells: re-running a finished campaign
// over its checkpoint restores every cell instead of re-measuring.
func TestCheckpointSkipsCompletedCells(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	pl := chaosPolicy(11, 0)
	pl.CheckpointPath = ckpt
	first, err := pl.Campaign(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatal(err)
	}
	if first.Coverage.Resumed != 0 {
		t.Errorf("fresh run resumed %d cells", first.Coverage.Resumed)
	}
	second, err := pl.Campaign(context.Background(), zoo.Build, campaignNames)
	if err != nil {
		t.Fatal(err)
	}
	total := first.Coverage.ProfileCells + first.Coverage.CommCells
	if second.Coverage.Resumed != total {
		t.Errorf("second run resumed %d cells, want all %d", second.Coverage.Resumed, total)
	}
	if !reflect.DeepEqual(first.Bundle, second.Bundle) || !reflect.DeepEqual(first.CommObs, second.CommObs) {
		t.Error("checkpoint-restored campaign differs from the measured one")
	}
}

// TestCheckpointRejectsConfigMismatch: a journal written by a
// different campaign configuration, or by an earlier journal version
// whose comm records were measured differently, is refused before any
// cell is measured, so the refused run appends nothing to it.
func TestCheckpointRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	pl := chaosPolicy(11, 0)
	pl.CheckpointPath = filepath.Join(dir, "campaign.ckpt")
	if _, err := pl.Campaign(context.Background(), zoo.Build, campaignNames[:1]); err != nil {
		t.Fatal(err)
	}
	otherSeed := pl
	otherSeed.Seed = 12

	// A version 1 journal: this campaign's header at the old version.
	v1 := pl
	v1.CheckpointPath = filepath.Join(dir, "v1.ckpt")
	h := pl.checkpointHeader()
	h.Version = 1
	var buf bytes.Buffer
	if err := jsonl.NewWriter(&buf).Append(checkpointRecord{Type: "header", Header: &h}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1.CheckpointPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		pl   Pipeline
	}{
		{"a checkpoint from a different seed", otherSeed},
		{"a version 1 checkpoint", v1},
	} {
		before, err := os.ReadFile(tc.pl.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := tc.pl.Campaign(context.Background(), zoo.Build, campaignNames[:1]); err == nil || res != nil {
			t.Errorf("%s must be rejected, got %v", tc.name, err)
		}
		if after, err := os.ReadFile(tc.pl.CheckpointPath); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: the refused run changed the journal (err %v)", tc.name, err)
		}
	}
}

// TestCheckpointCorruption: a torn final line (interrupted append) is
// tolerated; corruption anywhere else is an error.
func TestCheckpointCorruption(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.ckpt")
	pl := chaosPolicy(11, 0)
	pl.CheckpointPath = ckpt
	if _, err := pl.Campaign(context.Background(), zoo.Build, campaignNames[:1]); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail: drop the last half-line, as a crash mid-append would.
	torn := append(append([]byte(nil), data...), []byte(`{"type":"profile","cell":"pro`)...)
	if err := os.WriteFile(ckpt, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Campaign(context.Background(), zoo.Build, campaignNames[:1])
	if err != nil {
		t.Fatalf("a torn final line must be tolerated: %v", err)
	}
	if res.Coverage.Resumed == 0 {
		t.Error("the intact prefix should still restore cells")
	}

	// Mid-file corruption is not recoverable.
	lines := bytes.SplitN(data, []byte("\n"), 3)
	if len(lines) < 3 {
		t.Fatal("journal too short to corrupt")
	}
	corrupt := bytes.Join([][]byte{lines[0], []byte(`{broken`), lines[2]}, []byte("\n"))
	bad := filepath.Join(dir, "corrupt.ckpt")
	if err := os.WriteFile(bad, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	pl.CheckpointPath = bad
	if _, err := pl.Campaign(context.Background(), zoo.Build, campaignNames[:1]); err == nil {
		t.Error("mid-file corruption must be rejected")
	}

	// A journal that does not start with a header is rejected too.
	headerless := filepath.Join(dir, "headerless.ckpt")
	if err := os.WriteFile(headerless, bytes.Join(lines[1:], []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	pl.CheckpointPath = headerless
	if _, err := pl.Campaign(context.Background(), zoo.Build, campaignNames[:1]); err == nil {
		t.Error("a headerless journal must be rejected")
	}
}

// TestCheckpointCorruptionShared drives the shared journal-corruption
// table (internal/trace/corrupt) through the checkpoint reader: the
// same mutations the observation-log reader pins, with the same
// verdicts — a torn final line resumes from the intact prefix, damage
// anywhere else rejects the journal. A tolerated journal must also
// survive a second resume (the first one appends after whatever the
// crash left), and both resumes must measure exactly what a clean run
// measured.
func TestCheckpointCorruptionShared(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.ckpt")
	pl := chaosPolicy(11, 0)
	pl.CheckpointPath = ckpt
	clean, err := pl.Campaign(context.Background(), zoo.Build, campaignNames[:1])
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range corrupt.Cases() {
		mutated := tc.Mutate(append([]byte{}, data...))
		path := filepath.Join(dir, tc.Name+".ckpt")
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		run := pl
		run.CheckpointPath = path
		res, err := run.Campaign(context.Background(), zoo.Build, campaignNames[:1])
		switch tc.Want {
		case corrupt.WantAll, corrupt.WantTorn:
			if err != nil {
				t.Errorf("%s: must be tolerated, got %v", tc.Name, err)
				continue
			}
			if res.Coverage.Resumed == 0 {
				t.Errorf("%s: the intact prefix should still restore cells", tc.Name)
			}
			again, err := run.Campaign(context.Background(), zoo.Build, campaignNames[:1])
			if err != nil {
				t.Errorf("%s: second resume: %v", tc.Name, err)
				continue
			}
			for i, r := range []*CampaignResult{res, again} {
				if !reflect.DeepEqual(r.Bundle, clean.Bundle) || !reflect.DeepEqual(r.CommObs, clean.CommObs) {
					t.Errorf("%s: resume %d measured differently from a clean run", tc.Name, i+1)
				}
			}
		case corrupt.WantErr:
			if err == nil {
				t.Errorf("%s: corruption must reject the journal", tc.Name)
			}
		}
	}
}

// TestCheckpointLongRecord: the checkpoint is a file this program
// wrote, so its reader sets no line cap — a default campaign writes
// profile records over 5 MB. A record longer than the observation
// streams' 4 MiB cap must replay.
func TestCheckpointLongRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	pl := chaosPolicy(11, 0)
	cp, _, err := openCheckpoint(path, pl.checkpointHeader())
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("k", 5<<20)
	cp.noteAttempt(key, 2)
	if err := cp.close(); err != nil {
		t.Fatal(err)
	}
	cp, _, err = openCheckpoint(path, pl.checkpointHeader())
	if err != nil {
		t.Fatalf("a checkpoint record over 4 MiB must replay: %v", err)
	}
	if got := cp.consumed(key); got != 2 {
		t.Errorf("replayed attempt count %d, want 2", got)
	}
	if err := cp.close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCalibrationStream extends the chaos determinism contract to
// the observe→calibrate loop: a campaign's observation log and a
// fault-injected calibration replay over it (transient drops
// mid-stream) degrade gracefully and produce byte-identical logs,
// reports, and recalibrated predictors at 1 and 8 workers.
func TestChaosCalibrationStream(t *testing.T) {
	pol := DefaultCalibrationPolicy()
	pol.Drift.Window = 8
	pol.Drift.SignRun = 4
	pol.RefitEvery = 32
	spec := &faults.Spec{Seed: 42, TransientRate: 0.10}
	run := func(workers int) (obsLog, report, predJSON []byte, dropped int) {
		pl := testPipeline(workers)
		res, err := pl.Campaign(context.Background(), zoo.Build, campaignNames)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := Train(res.Bundle, res.CommObs)
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		if err := trace.WriteObsLog(&log, res.Bundle); err != nil {
			t.Fatal(err)
		}
		cal, err := NewCalibrator(pred, pol)
		if err != nil {
			t.Fatal(err)
		}
		if err := cal.Replay(bytes.NewReader(log.Bytes()), mustInjector(t, spec)); err != nil {
			t.Fatalf("transient faults must degrade gracefully, not abort: %v", err)
		}
		rep := cal.Report()
		var text bytes.Buffer
		if err := rep.Render(&text); err != nil {
			t.Fatal(err)
		}
		return log.Bytes(), text.Bytes(), savedBytes(t, cal.Predictor()), rep.Dropped
	}
	sLog, sRep, sPred, sDropped := run(1)
	pLog, pRep, pPred, pDropped := run(8)

	if sDropped == 0 {
		t.Error("a 10% transient rate should drop at least one observation")
	}
	if sDropped != pDropped {
		t.Errorf("dropped count differs across worker counts: %d vs %d", sDropped, pDropped)
	}
	if !bytes.Equal(sLog, pLog) {
		t.Error("observation log differs between 1 and 8 workers")
	}
	if !bytes.Equal(sRep, pRep) {
		t.Error("calibration report differs between 1 and 8 workers")
	}
	if !bytes.Equal(sPred, pPred) {
		t.Error("recalibrated predictor JSON differs between 1 and 8 workers")
	}
}

// TestTrainDegradedThresholdDevice: losing the classification
// threshold device (K80) leaves nothing to classify against, so
// training fails loudly rather than fitting nonsense.
func TestTrainDegradedThresholdDevice(t *testing.T) {
	pl := chaosPolicy(11, 0)
	pl.Faults = mustInjector(t, &faults.Spec{Seed: 5, PermanentDevices: []string{string(gpu.K80)}})
	_, _, err := pl.TrainOn(context.Background(), zoo.Build, campaignNames)
	if err == nil {
		t.Fatal("training without the threshold device should fail")
	}
	if faults.IsPreempted(err) {
		t.Errorf("failure should be a training error, not an abort: %v", err)
	}
}

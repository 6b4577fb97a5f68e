package serve

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ceer"
	"ceer/internal/retry"
)

// Typed reload-rejection causes. Every rejected swap keeps the old
// generation serving; the cause says why the new one never made it.
const (
	// ReloadCauseLoad: the file would not read or decode (corruption,
	// missing file) even after the mid-write retry budget.
	ReloadCauseLoad = "load"
	// ReloadCauseVersion: the file declares an unsupported persist
	// version.
	ReloadCauseVersion = "version"
	// ReloadCauseRegistry: the file references a device ID this
	// process never registered.
	ReloadCauseRegistry = "registry"
	// ReloadCauseCompile: the loaded predictor would not compile into
	// serving tables.
	ReloadCauseCompile = "compile"
	// ReloadCauseProbe: a golden prediction failed, was non-finite or
	// non-positive, or diverged beyond Options.ReloadTolerance from the
	// serving generation's.
	ReloadCauseProbe = "probe"
)

// ReloadError is a rejected swap: the typed cause plus the underlying
// error. The serving generation is unchanged when one is returned.
type ReloadError struct {
	Cause string
	Err   error
}

func (e *ReloadError) Error() string {
	return fmt.Sprintf("serve: reload rejected (%s): %v", e.Cause, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ReloadError) Unwrap() error { return e.Err }

// classifyReloadFault retries only the mid-write signature: a
// *PersistError whose JSON never decoded (Version == 0) — the
// footprint of reading a model file while a writer is replacing it.
// Version and registry mismatches are deterministic; retrying them
// cannot help.
func classifyReloadFault(err error) retry.Decision {
	var pe *ceer.PersistError
	if errors.As(err, &pe) && pe.Version == 0 {
		return retry.Retry
	}
	return retry.Fail
}

// reject records a rejected swap: metric, last-cause marker, typed
// error. Callers hold reloadMu.
func (s *Server) reject(cause string, err error) (uint64, error) {
	s.met.srv.reloadRejected.Add(1)
	s.lastReloadCause.Store(&cause)
	return 0, &ReloadError{Cause: cause, Err: err}
}

// noTotal is a fragment's total where its cell could not be predicted.
var noTotal = math.NaN()

// probeCell is the golden probe of one swap cell, zoo model slot on
// candidate ci: the incoming prediction cand (or err) must be finite,
// positive and within Options.ReloadTolerance (relative) of have, the
// serving generation's total_s (skipped where it is noTotal), so a
// corrupt or stale-but-plausible model file cannot silently replace a
// good generation.
func (s *Server) probeCell(slot, ci int, cand ceer.Candidate, err error, have float64) error {
	name, config := s.models[slot].name, s.metaByK[s.maxK][ci].config
	if err != nil {
		return fmt.Errorf("probe %s/%s: %w", name, config, err)
	}
	if !(cand.TotalSeconds > 0) || math.IsInf(cand.TotalSeconds, 0) ||
		!(cand.CostUSD > 0) || math.IsInf(cand.CostUSD, 0) {
		return fmt.Errorf("probe %s/%s: non-finite or non-positive prediction (total_s=%v cost_usd=%v)",
			name, config, cand.TotalSeconds, cand.CostUSD)
	}
	if rel := math.Abs(cand.TotalSeconds-have) / have; !math.IsNaN(have) && rel > s.tol {
		return fmt.Errorf("probe %s/%s: total_s diverges %.1f%% (have %v, incoming %v, tolerance %.0f%%)",
			name, config, rel*100, have, cand.TotalSeconds, s.tol*100)
	}
	return nil
}

// Reload re-reads Options.ModelPath and swaps the serving tables —
// after validation. A mid-write file is retried with backoff; version
// and registry mismatches, compile failures, and a failed golden probe
// reject the swap, keep the old generation serving, increment
// reload_rejected, and return a *ReloadError carrying the typed cause.
// While calibration is on, Reload refuses before it reads the file: the
// calibrator owns the serving model, and its next swap would replace a
// reloaded one. Concurrent Reloads serialize; requests are never
// blocked. Returns the new generation on an accepted swap.
func (s *Server) Reload() (uint64, error) {
	if s.calib != nil {
		return 0, errors.New("serve: reload refused: calibration owns the serving model; " +
			"restart with the new -models and a fresh -observe-journal to change it")
	}
	if s.opts.ModelPath == "" {
		return 0, errors.New("serve: no model path configured (start with -models to enable reload)")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()

	var sys *ceer.System
	err := s.reloadRetry.Do(context.Background(), "reload", 1, func(int) error {
		loaded, lerr := ceer.LoadFile(s.opts.ModelPath)
		if lerr == nil {
			sys = loaded
		}
		return lerr
	})
	if err != nil {
		switch {
		case errors.Is(err, ceer.ErrUnsupportedVersion):
			return s.reject(ReloadCauseVersion, err)
		case errors.Is(err, ceer.ErrUnknownDevice):
			return s.reject(ReloadCauseRegistry, err)
		default:
			return s.reject(ReloadCauseLoad, err)
		}
	}
	comp, err := sys.Compiled(s.batch)
	if err != nil {
		return s.reject(ReloadCauseCompile, err)
	}
	gen, err := s.install(comp, s.cur.Load())
	if err != nil {
		return s.reject(ReloadCauseProbe, err)
	}
	s.met.srv.reloads.Add(1)
	s.lastReloadCause.Store(nil)
	return gen, nil
}

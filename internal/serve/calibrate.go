package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"ceer"
	"ceer/internal/jsonl"
	"ceer/internal/trace"
)

// CalibrationOptions enables the in-daemon observe→predict→calibrate
// loop (PR 7's Calibrator behind POST /v1/observe).
//
// Crash-safety contract: with JournalPath set, every accepted
// observation's line is appended to the JSONL journal — written, and
// fsynced under FsyncAlways — BEFORE its rank-1 update applies. The
// loop writes the lines of a block of observations (up to
// journalBlock bytes, or the rest of a batch) in one write and one
// fsync, then applies them. A kill -9 at any instant therefore leaves
// whole journaled lines, applied or not yet, and at most a torn,
// never-acknowledged final line; restarting with the same journal
// replays the intact prefix through the same calibrator and
// reconstructs byte-identical predictor state (the chaos suite pins
// this).
type CalibrationOptions struct {
	// Policy fixes drift thresholds and the refit schedule. A zero
	// drift policy selects ceer.DefaultDriftPolicy.
	Policy ceer.CalibrationPolicy
	// JournalPath is the write-ahead observation journal ("" = apply
	// in memory only; state dies with the process).
	JournalPath string
	// Fsync is the journal durability policy: FsyncAlways (default)
	// or FsyncNever.
	Fsync string
}

// Fsync policies for the observation journal.
const (
	// FsyncAlways fsyncs after every journal write, before any
	// observation in it applies: a kill -9 at any instant loses at
	// most the torn final line — and that observation was never
	// acknowledged, so replay is exact. A write carries a block of
	// observations, so a POST body costs one fsync per block, not
	// one per observation.
	FsyncAlways = "always"
	// FsyncNever leaves flushing to the OS: faster ingestion, and a
	// hard crash may lose the tail of *acknowledged* observations
	// (replay still recovers a consistent prefix).
	FsyncNever = "never"
)

// journalBlock bounds the journal lines the calibration loop stages
// before it writes them: a block is written once it holds this many
// bytes, and at the end of every batch. 128 KiB holds a 500-line
// observe body of the zoo's observation stream (64–70 kB).
const journalBlock = 128 << 10

// errCalibClosed refuses observations once the journal has closed on
// drain, so none can apply without being journaled.
var errCalibClosed = errors.New("serve: calibration closed by drain")

// calibLoop owns the daemon's calibrator. The calibrator is not
// concurrency-safe — observations are one ordered stream — so every
// mutation serializes on mu; served requests never touch it (they read
// the published generation).
//
// Refits do not publish directly to the serving generation: the
// calibrator is bound to a private staging box, and each newly staged
// table goes through the same golden probe as a file reload before it
// is installed. A poisoned observation stream that drags a refit beyond
// tolerance is rejected — the daemon keeps serving the last good
// generation while the calibrator keeps accumulating (the journal
// preserves everything for offline triage).
type calibLoop struct {
	mu      sync.Mutex
	cal     *ceer.Calibrator
	journal *jsonl.Writer
	// closed is set when the drain closes the journal; from then on
	// every observation is refused.
	closed bool
	// block holds the staged observations' lines, each with its
	// newline, and pending the observations themselves; both are
	// reused across batches.
	block   []byte
	pending []trace.Obs

	staging ceer.CompiledBox
	// lastStaged is the most recently probed staging table (accepted
	// or rejected), so a rejected table is not re-probed every batch.
	lastStaged *ceer.CompiledSystem
}

// initCalibration builds the calibration loop and, when a journal
// exists, replays it before the server goes ready — the restart half
// of the crash-safety contract.
func (s *Server) initCalibration(sys *ceer.System, co *CalibrationOptions) error {
	pol := co.Policy
	if pol.Drift.Window == 0 {
		pol.Drift = ceer.DefaultDriftPolicy()
	}
	cal, err := sys.NewCalibrator(pol)
	if err != nil {
		return fmt.Errorf("serve: calibration: %w", err)
	}
	cl := &calibLoop{cal: cal}
	if err := cal.BindBox(&cl.staging, s.graphs); err != nil {
		return fmt.Errorf("serve: calibration: %w", err)
	}
	cl.lastStaged = cl.staging.Load()
	s.calib = cl

	if co.JournalPath != "" {
		switch co.Fsync {
		case "", FsyncAlways, FsyncNever:
		default:
			return fmt.Errorf("serve: unknown fsync policy %q (want %q or %q)", co.Fsync, FsyncAlways, FsyncNever)
		}
		j, err := jsonl.Open(co.JournalPath, co.Fsync != FsyncNever, func(line []byte) error {
			o, err := trace.DecodeObs(line)
			if err != nil {
				return err
			}
			return cal.Calibrate(o)
		})
		if err != nil {
			return fmt.Errorf("serve: replaying observation journal %s: %w", co.JournalPath, err)
		}
		cl.journal = j
		s.met.srv.calibObs.Add(uint64(j.Replayed))
		// The replay is one batch: its refits staged new tables, which
		// install exactly as the live loop would have.
		s.settleCalibration(cal.Report())
	}
	return nil
}

// JournalReplayed reports what the observation journal contributed at
// startup: replayed observation count and the 1-based line of a
// tolerated torn tail (0 = clean), for the boot log.
func (s *Server) JournalReplayed() (obs, tornLine int) {
	if s.calib == nil || s.calib.journal == nil {
		return 0, 0
	}
	return s.calib.journal.Replayed, s.calib.journal.Torn
}

// settleCalibration runs after every batch of observations: a POST
// body, the boot journal replay, or one tail poll. It installs the
// newest staged table if its render passes the golden probe against
// the serving generation, and sets drifted_cells from rep, the batch's
// final calibrator report. A rejected table keeps the old generation
// serving, counts calib_swap_rejected and is not probed again.
func (s *Server) settleCalibration(rep ceer.CalibrationReport) {
	drifted := int64(0)
	for i := range rep.Cells {
		if rep.Cells[i].Drifted {
			drifted++
		}
	}
	s.met.srv.driftedCells.Store(drifted)
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cur := s.calib.staging.Load()
	if cur == s.calib.lastStaged {
		return
	}
	s.calib.lastStaged = cur
	if _, err := s.install(cur, s.cur.Load()); err != nil {
		s.met.srv.calibSwapsRejected.Add(1)
		cause := ReloadCauseProbe
		s.lastReloadCause.Store(&cause)
		fmt.Fprintf(os.Stderr, "ceer serve: calibration swap rejected: %v\n", err)
		return
	}
	s.met.srv.calibSwaps.Add(1)
}

// handleObserve is POST /v1/observe: a JSONL body of observations,
// each journaled (write-ahead) then folded into the calibrator. While
// degraded, calibration work is shed with 503 — the breaker's contract
// is "keep serving, stop mutating".
//
//hot:exempt cold calibration endpoint; observation decode and rank-1 updates allocate by design
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request, start int64) {
	if s.calib == nil {
		s.respondError(w, epObserve, http.StatusNotFound, "calibration not enabled (start with -observe)", start)
		return
	}
	if s.healthState(start) == stateDegraded {
		s.met.srv.calibShed.Add(1)
		s.respondError(w, epObserve, http.StatusServiceUnavailable, "degraded: calibration shed", start)
		return
	}
	if r.Body == nil {
		s.respondError(w, epObserve, http.StatusBadRequest, "missing request body", start)
		return
	}
	resp, err := s.ingestObs(r.Body)
	if err != nil {
		s.respondError(w, epObserve, http.StatusBadRequest, err.Error(), start)
		return
	}
	s.replyJSON(w, epObserve, http.StatusOK, resp, start)
}

// ingestObs streams one observe request body through the
// journal→calibrate path. The batch is ordered and atomic with respect
// to other batches (cl.mu). On a mid-body decode error the lines
// before it are journaled and applied — the journal and the in-memory
// state never diverge — and the client learns the failing line.
func (s *Server) ingestObs(body io.Reader) (ObserveResponse, error) {
	cl := s.calib
	cl.mu.Lock()
	before := cl.cal.Report()
	journaled := cl.journal != nil
	or := trace.NewObsReader(body)
	accepted := 0
	var ingestErr error
	for ingestErr == nil {
		o, line, err := or.Read()
		if err == io.EOF {
			if t := or.Torn(); t > 0 {
				ingestErr = fmt.Errorf("truncated observation on line %d (a request body cannot be torn)", t)
			}
			break
		}
		if err != nil {
			ingestErr = err
			break
		}
		if cl.stage(o, line) {
			var n int
			n, ingestErr = cl.flush(true)
			accepted += n
		}
	}
	// The batch's last block. Its lines precede any decode error, so
	// its own failure is the one to report.
	n, err := cl.flush(true)
	accepted += n
	if err != nil {
		ingestErr = err
	}
	after := cl.cal.Report()
	cl.mu.Unlock()

	s.met.srv.calibObs.Add(uint64(accepted))
	s.settleCalibration(after)
	if ingestErr != nil {
		return ObserveResponse{}, ingestErr
	}
	return ObserveResponse{
		Status:     "accepted",
		Accepted:   accepted,
		Applied:    after.Applied - before.Applied,
		Skipped:    skippedOf(after) - skippedOf(before),
		Refits:     after.Refits - before.Refits,
		Generation: s.Generation(),
		Journaled:  journaled,
	}, nil
}

// stage adds o and its record line to the block and reports whether
// the block has reached journalBlock bytes and must be flushed.
// Callers hold cl.mu.
func (cl *calibLoop) stage(o trace.Obs, line []byte) bool {
	cl.pending = append(cl.pending, o)
	cl.block = append(append(cl.block, line...), '\n')
	return len(cl.block) >= journalBlock
}

// flush journals the staged lines in one write — plus one fsync under
// FsyncAlways — and only then applies their observations in order:
// write-ahead, so no observation applies before its line is in the
// file. It empties the block and returns how many observations applied
// and the first error. A closed loop or a failed journal write applies
// none. A Calibrate error ends the block there when stop is set (a POST
// body): the block's later lines stay journaled but unapplied, and boot
// replay stops at that same failing line. Without stop (a tail poll)
// the block's other observations still apply. Callers hold cl.mu.
func (cl *calibLoop) flush(stop bool) (applied int, err error) {
	if len(cl.pending) == 0 {
		return 0, nil
	}
	defer cl.reset()
	if cl.closed {
		return 0, errCalibClosed
	}
	if cl.journal != nil {
		if err := cl.journal.AppendLines(cl.block); err != nil {
			return 0, fmt.Errorf("serve: journaling observations: %w", err)
		}
	}
	for _, o := range cl.pending {
		if cerr := cl.cal.Calibrate(o); cerr != nil {
			if err == nil {
				err = cerr
			}
			if stop {
				break
			}
			continue
		}
		applied++
	}
	return applied, err
}

// reset empties the block for the next one. The observations are
// cleared so their feature slices can be collected, and a block that
// grew past twice its bound for one long line is let go.
func (cl *calibLoop) reset() {
	clear(cl.pending)
	cl.pending = cl.pending[:0]
	cl.block = cl.block[:0]
	if cap(cl.block) > 2*journalBlock {
		cl.block = nil
	}
}

// skippedOf sums a report's skip counters.
func skippedOf(r ceer.CalibrationReport) int {
	return r.SkippedClass + r.SkippedUnmodeled + r.SkippedShape
}

// SaveCalibrated writes the calibrator's current (latest recalibrated)
// predictor — the same bytes an uninterrupted run would save, which is
// what the chaos suite byte-compares across a kill -9.
func (s *Server) SaveCalibrated(w io.Writer) error {
	if s.calib == nil {
		return errors.New("serve: calibration not enabled")
	}
	s.calib.mu.Lock()
	defer s.calib.mu.Unlock()
	return s.calib.cal.Predictor().Save(w)
}

// TailObsLog follows a growing observation log, feeding each complete
// appended line through the same journal→calibrate path as POST
// /v1/observe (the optional obs-log tail mode). The lines one poll
// reads are one batch, settled like a POST body. Malformed lines are
// counted and dropped — a poisoned stream degrades calibration, never
// serving — and lines arriving while degraded are shed. An incomplete
// final line waits for its terminator. Returns nil when ctx ends or
// the daemon drains; file-system errors (other than the file not
// existing yet) are returned.
func (s *Server) TailObsLog(ctx context.Context, path string, interval time.Duration) error {
	if s.calib == nil {
		return errors.New("serve: calibration not enabled")
	}
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	var off int64
	for {
		if ctx.Err() != nil || s.draining.Load() {
			return nil
		}
		if err := s.tailChunk(path, &off); err != nil {
			return err
		}
		time.Sleep(interval)
	}
}

// tailChunk reads whatever the log grew since the last poll and applies
// every complete line; an unterminated final line is read again at the
// next poll. Truncation (rotation) restarts from offset 0.
func (s *Server) tailChunk(path string, off *int64) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil // not created yet; keep polling
	}
	if err != nil {
		return err
	}
	//lint:ignore errdrop read side; there are no buffered writes to lose
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < *off {
		*off = 0 // rotated/truncated: start over
	}
	if st.Size() == *off {
		return nil
	}
	if _, err := f.Seek(*off, io.SeekStart); err != nil {
		return err
	}
	grown, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	grown = grown[:bytes.LastIndexByte(grown, '\n')+1]
	*off += int64(len(grown))
	s.tailApply(grown)
	return nil
}

// tailApply applies one poll's complete lines as one batch, like a POST
// body, through the same journal-then-apply blocks. Malformed lines and
// lines that fail to apply are dropped and counted; lines read while
// degraded, or after the drain closed the journal, are shed.
func (s *Server) tailApply(grown []byte) {
	cl := s.calib
	cl.mu.Lock()
	for _, line := range bytes.Split(grown, []byte("\n")) {
		if line = jsonl.TrimSpace(line); len(line) == 0 {
			continue
		}
		o, err := trace.DecodeObs(line)
		if err != nil {
			s.met.srv.calibDropped.Add(1)
			continue
		}
		if s.healthState(s.clock.Nanos()) == stateDegraded {
			s.met.srv.calibShed.Add(1)
			continue
		}
		if cl.stage(o, line) {
			s.tailFlush()
		}
	}
	s.tailFlush()
	rep := cl.cal.Report()
	cl.mu.Unlock()
	s.settleCalibration(rep)
}

// tailFlush flushes a tail poll's block and counts its observations:
// applied, shed when the loop has closed, dropped otherwise. Callers
// hold cl.mu.
func (s *Server) tailFlush() {
	staged := len(s.calib.pending)
	applied, err := s.calib.flush(false)
	s.met.srv.calibObs.Add(uint64(applied))
	if errors.Is(err, errCalibClosed) {
		s.met.srv.calibShed.Add(uint64(staged))
		return
	}
	s.met.srv.calibDropped.Add(uint64(staged - applied))
}

// close closes the journal (clean drain) and closes the loop: an
// observation that arrives later, from a tail poll, is refused rather
// than applied without its journal line.
func (cl *calibLoop) close() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.closed = true
	if cl.journal != nil {
		if err := cl.journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ceer serve: closing observation journal: %v\n", err)
		}
		cl.journal = nil
	}
}

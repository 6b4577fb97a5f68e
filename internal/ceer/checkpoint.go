// Campaign checkpointing: an append-only JSONL journal (internal/jsonl)
// of completed cells and consumed attempts. A campaign aborted by
// preemption (or a crash) re-opens the journal, skips every completed
// cell, and resumes interrupted cells at the attempt after their last
// consumed one.
// Profiles round-trip through the exact trace state codec, so a
// resumed campaign produces the very bytes an uninterrupted run would
// have.

package ceer

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"ceer/internal/gpu"
	"ceer/internal/jsonl"
	"ceer/internal/trace"
)

// checkpointVersion guards the journal format. Version 2 journals comm
// overheads drawn by sim.CommOverhead; a version 1 journal's differ by
// rounding, so it is refused rather than spliced into a resumed run.
const checkpointVersion = 2

// checkpointHeader pins the campaign parameters a journal belongs to.
// Resuming under different parameters would splice incompatible
// measurements into one bundle, so mismatches are rejected.
type checkpointHeader struct {
	Version           int    `json:"version"`
	Seed              uint64 `json:"seed"`
	Batch             int64  `json:"batch"`
	ProfileIterations int    `json:"profile_iters"`
	CommIterations    int    `json:"comm_iters"`
	MaxK              int    `json:"max_k"`
}

func (pl Pipeline) checkpointHeader() checkpointHeader {
	return checkpointHeader{
		Version:           checkpointVersion,
		Seed:              pl.Seed,
		Batch:             pl.Batch,
		ProfileIterations: pl.ProfileIterations,
		CommIterations:    pl.CommIterations,
		MaxK:              pl.MaxK,
	}
}

// checkpointRecord is one journal line. Type selects which payload
// field is populated: "header", "profile", "comm", or "attempt".
type checkpointRecord struct {
	Type     string            `json:"type"`
	Header   *checkpointHeader `json:"header,omitempty"`
	Cell     string            `json:"cell,omitempty"`
	Profile  json.RawMessage   `json:"profile,omitempty"`
	Comm     *CommObs          `json:"comm,omitempty"`
	Attempts int               `json:"attempts,omitempty"`
}

// checkpoint is the live journal: in-memory maps of everything loaded
// or recorded, plus the append-side writer. All methods are safe for
// concurrent use by campaign workers, and read-side methods tolerate a
// nil receiver (no checkpoint configured).
type checkpoint struct {
	mu       sync.Mutex
	w        *jsonl.Writer
	profiles map[string]*trace.Profile
	comms    map[string]CommObs
	attempts map[string]int
}

// openCheckpoint replays the journal at path (if any) through the
// jsonl codec, validates its header against the campaign's, and opens
// it for appending. It returns the checkpoint and the number of
// completed cells restored.
func openCheckpoint(path string, h checkpointHeader) (*checkpoint, int, error) {
	cp := &checkpoint{
		profiles: make(map[string]*trace.Profile),
		comms:    make(map[string]CommObs),
		attempts: make(map[string]int),
	}
	w, err := jsonl.Open(path, false, cp.replay(h))
	if err != nil {
		return nil, 0, fmt.Errorf("ceer: checkpoint %s: %w", path, err)
	}
	cp.w = w
	if w.Replayed == 0 {
		if err := cp.append(checkpointRecord{Type: "header", Header: &h}); err != nil {
			// The header write error is the one to surface; the close
			// cannot lose buffered data (nothing was written).
			_ = w.Close()
			return nil, 0, err
		}
	}
	return cp, len(cp.profiles) + len(cp.comms), nil
}

// replay returns the journal's record callback: the first record must
// be a header matching want, and the rest restore completed cells and
// consumed attempts.
func (c *checkpoint) replay(want checkpointHeader) func(line []byte) error {
	sawHeader := false
	return func(line []byte) error {
		var rec checkpointRecord
		if err := jsonl.Decode(line, &rec); err != nil {
			return err
		}
		if !sawHeader {
			if rec.Type != "header" || rec.Header == nil {
				return errors.New("journal does not start with a header record")
			}
			if *rec.Header != want {
				return fmt.Errorf("written by a different campaign configuration (have %+v, want %+v)",
					*rec.Header, want)
			}
			sawHeader = true
			return nil
		}
		switch rec.Type {
		case "profile":
			p, err := trace.UnmarshalState(rec.Profile)
			if err != nil {
				return err
			}
			c.profiles[rec.Cell] = p
		case "comm":
			if rec.Comm == nil {
				return errors.New("comm record without payload")
			}
			if _, ok := gpu.Lookup(rec.Comm.GPU); !ok {
				return fmt.Errorf("unregistered device %q", rec.Comm.GPU)
			}
			c.comms[rec.Cell] = *rec.Comm
		case "attempt":
			if rec.Attempts > c.attempts[rec.Cell] {
				c.attempts[rec.Cell] = rec.Attempts
			}
		case "header":
			return errors.New("duplicate header record")
		default:
			return fmt.Errorf("unknown record type %q", rec.Type)
		}
		return nil
	}
}

// append journals one record. The codec hands each record to the file
// in one write, so once append returns the record survives a process
// crash. The checkpoint does not fsync: a machine crash may lose the
// tail, and a resume then re-measures those cells.
func (c *checkpoint) append(rec checkpointRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.w.Append(rec); err != nil {
		return fmt.Errorf("ceer: writing checkpoint: %w", err)
	}
	return nil
}

// restoreProfile returns the checkpointed profile of a cell, if any.
func (c *checkpoint) restoreProfile(key string) (*trace.Profile, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	p, ok := c.profiles[key]
	c.mu.Unlock()
	return p, ok
}

// restoreComm returns the checkpointed observation of a cell, if any.
func (c *checkpoint) restoreComm(key string) (CommObs, bool) {
	if c == nil {
		return CommObs{}, false
	}
	c.mu.Lock()
	o, ok := c.comms[key]
	c.mu.Unlock()
	return o, ok
}

// consumed returns how many attempts the cell has already used across
// this and prior runs.
func (c *checkpoint) consumed(key string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	n := c.attempts[key]
	c.mu.Unlock()
	return n
}

// noteAttempt journals a failed attempt so a resumed run continues
// past it. Journal write errors here are deliberately swallowed: the
// attempt record only optimizes resumption, and failing the cell over
// it would turn a bookkeeping hiccup into lost measurements.
func (c *checkpoint) noteAttempt(key string, attempt int) {
	c.mu.Lock()
	if attempt > c.attempts[key] {
		c.attempts[key] = attempt
	}
	c.mu.Unlock()
	// Best-effort journal append; see the function comment.
	_ = c.append(checkpointRecord{Type: "attempt", Cell: key, Attempts: attempt})
}

// recordProfile journals a completed profile cell.
func (c *checkpoint) recordProfile(key string, p *trace.Profile) error {
	data, err := p.MarshalState()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.profiles[key] = p
	c.mu.Unlock()
	return c.append(checkpointRecord{Type: "profile", Cell: key, Profile: data})
}

// recordComm journals a completed communication cell.
func (c *checkpoint) recordComm(key string, o CommObs) error {
	c.mu.Lock()
	c.comms[key] = o
	c.mu.Unlock()
	return c.append(checkpointRecord{Type: "comm", Cell: key, Comm: &o})
}

// close releases the journal file.
func (c *checkpoint) close() error {
	if c == nil || c.w == nil {
		return nil
	}
	if err := c.w.Close(); err != nil {
		return fmt.Errorf("ceer: closing checkpoint: %w", err)
	}
	return nil
}

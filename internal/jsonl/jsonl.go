// Package jsonl is the repository's one JSONL record codec. The
// campaign checkpoint, the daemon's observation journal and the
// observation log all append and replay through it, under one recovery
// contract:
//
//   - Lines are numbered from 1, and blank lines are skipped.
//   - Every other line holds exactly one JSON value, with nothing
//     around it but JSON whitespace (TrimSpace).
//   - A torn tail is a final line with no newline that is not valid
//     JSON. Every write hands whole lines to the file — Append one
//     record, AppendLines a block of them — so whole lines and a torn
//     tail are all a crash mid-write can leave behind. A reader drops
//     the tail and stops cleanly; damage anywhere else is an error
//     naming its line ("line N: ...").
//
// Open applies the contract to a file before appending to it, so a new
// record never joins an earlier line.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Reader yields the record lines of a JSONL stream.
type Reader struct {
	sc           *bufio.Scanner
	maxLine      int
	line         int   // number of the last line read
	unterminated bool  // the last line read has no newline
	kept         int64 // bytes read, a torn tail excluded
	torn         int   // line of the torn tail (0 = none)
}

// NewReader reads records from r. A positive maxLine caps the length
// of a line in bytes, its newline excluded; 0 sets no cap.
func NewReader(r io.Reader, maxLine int) *Reader {
	sc := bufio.NewScanner(r)
	limit := math.MaxInt
	if maxLine > 0 {
		limit = maxLine + 1
	}
	sc.Buffer(make([]byte, 0, min(64<<10, limit)), limit)
	sc.Split(scanLine)
	return &Reader{sc: sc, maxLine: maxLine}
}

// scanLine splits lines but keeps each newline, so the reader can tell
// a final line that lacks one.
func scanLine(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Next returns the next record line with its surrounding JSON
// whitespace trimmed, or io.EOF once the stream or its torn tail ends.
// The slice is valid until the next call.
func (r *Reader) Next() ([]byte, error) {
	for r.sc.Scan() {
		raw := r.sc.Bytes()
		r.line++
		r.unterminated = raw[len(raw)-1] != '\n'
		rec := TrimSpace(raw)
		if r.unterminated && len(rec) > 0 && !json.Valid(rec) {
			r.torn = r.line
			return nil, io.EOF
		}
		r.kept += int64(len(raw))
		if len(rec) > 0 {
			return rec, nil
		}
	}
	err := r.sc.Err()
	if err == nil {
		return nil, io.EOF
	}
	if errors.Is(err, bufio.ErrTooLong) {
		err = fmt.Errorf("longer than %d bytes", r.maxLine)
	}
	return nil, fmt.Errorf("line %d: %w", r.line+1, err)
}

// Line returns the number of the line the last record came from.
func (r *Reader) Line() int { return r.line }

// Torn returns the line of the torn tail the stream ended with, or 0.
func (r *Reader) Torn() int { return r.torn }

// jsonSpace is JSON's whitespace: space, tab, LF and CR. bytes.TrimSpace
// also strips \v, \f, U+0085 and U+00A0, which JSON does not allow
// around a value.
const jsonSpace = " \t\n\r"

// TrimSpace returns line without its leading and trailing JSON
// whitespace, the one trim every record reader applies. It returns a
// subslice and does not allocate.
func TrimSpace(line []byte) []byte { return bytes.Trim(line, jsonSpace) }

// Decode unmarshals one record line into v. The line must hold exactly
// one JSON value, and an object may carry no field v does not declare.
func Decode(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(TrimSpace(line[dec.InputOffset():])) > 0 {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// Writer appends records. Replayed counts the records Open streamed
// through its callback, and Torn is the line of the torn tail it cut.
type Writer struct {
	dst            io.Writer
	enc            *json.Encoder
	f              *os.File // the file Open opened
	sync           bool
	Replayed, Torn int
}

// NewWriter appends records to w.
func NewWriter(w io.Writer) *Writer { return &Writer{dst: w, enc: json.NewEncoder(w)} }

// Append writes v as one line. json.Encoder hands the value and its
// newline to the destination in a single Write, so nothing stays
// buffered here; a Writer opened with fsync then syncs the file.
func (w *Writer) Append(v any) error {
	if err := w.enc.Encode(v); err != nil {
		return err
	}
	return w.synced()
}

// AppendLines writes block, whole records each ending in its newline,
// to the destination in a single Write, then syncs like Append. The
// caller vouches that every line holds one JSON value (lines it has
// just decoded), so the bytes are not parsed again here.
func (w *Writer) AppendLines(block []byte) error {
	if len(block) == 0 {
		return nil
	}
	if block[len(block)-1] != '\n' {
		return errors.New("jsonl: a block must end with a newline")
	}
	if _, err := w.dst.Write(block); err != nil {
		return err
	}
	return w.synced()
}

// synced syncs the file of a Writer opened with fsync.
func (w *Writer) synced() error {
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

// Close closes the file of a Writer returned by Open.
func (w *Writer) Close() error { return w.f.Close() }

// Open streams the records of the file at path (if any) through
// replay, cuts a torn tail, ends an unterminated final line with its
// newline, and leaves the file open for appending, so the next write
// starts a line of its own. A replay error stops Open and names its
// line. Open reads files this program appended, so it sets no line
// cap. With fsync, every Append syncs the file.
func Open(path string, fsync bool, replay func(line []byte) error) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{dst: f, enc: json.NewEncoder(f), f: f, sync: fsync}
	if err := w.replay(replay); err != nil {
		_ = f.Close() // the replay error is the one to report
		return nil, err
	}
	return w, nil
}

// replay streams the file's records through fn, then cuts a torn tail
// or ends an unterminated final line. O_APPEND sends later writes to
// the end of the file whatever the read offset.
func (w *Writer) replay(fn func([]byte) error) error {
	r := NewReader(w.f, 0)
	for {
		line, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("line %d: %w", r.line, err)
		}
		w.Replayed++
	}
	if w.Torn = r.torn; w.Torn > 0 {
		return w.f.Truncate(r.kept)
	}
	if r.unterminated {
		_, err := w.f.Write([]byte{'\n'})
		return err
	}
	return nil
}

package jsonl

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ceer/internal/trace/corrupt"
)

var updateCorpus = flag.Bool("update-fuzz-corpus", false,
	"rewrite testdata/fuzz/FuzzJournalReplay from the corrupt table")

// intactLog is the journal the corrupt table mutates: complete,
// newline-terminated records of the kinds the repository appends.
const intactLog = `{"type":"header","header":{"version":1,"seed":11}}
{"type":"attempt","cell":"profile/vgg-11/k80","attempts":1}
{"cnn":"vgg-11","gpu":"v100","node":3,"op":"Conv2D","features":[1,2,3],"seconds":0.5}
{"type":"comm","cell":"comm/vgg-11/v100/2","comm":{"cnn":"vgg-11","gpu":"v100","k":2}}
`

// contract is the recovery contract written out apart from the codec:
// the records of data in order, the 1-based line of the first error (0
// = none), and whether data ends in a torn tail. Only JSON whitespace
// (space, tab, CR, LF) may surround a record.
func contract(data []byte) (recs []string, errLine int, torn bool) {
	lines := bytes.Split(data, []byte("\n"))
	for i, ln := range lines {
		rec := bytes.Trim(ln, " \t\r\n")
		switch {
		case len(rec) == 0:
		case json.Valid(rec):
			recs = append(recs, string(rec))
		case i == len(lines)-1: // no newline follows the final line
			return recs, 0, true
		default:
			return recs, i + 1, false
		}
	}
	return recs, 0, false
}

// namesLine reports whether err is the codec's error for line n.
func namesLine(err error, n int) bool {
	return err != nil && strings.HasPrefix(err.Error(), fmt.Sprintf("line %d: ", n))
}

// decodeRaw is the record callback of these tests: any one JSON value.
func decodeRaw(recs *[]string) func([]byte) error {
	return func(line []byte) error {
		var v json.RawMessage
		if err := Decode(line, &v); err != nil {
			return err
		}
		*recs = append(*recs, string(line))
		return nil
	}
}

// readAll drains a Reader the way ObsReader does.
func readAll(data []byte) (recs []string, torn int, err error) {
	r := NewReader(bytes.NewReader(data), 0)
	add := decodeRaw(&recs)
	for {
		line, err := r.Next()
		if err == io.EOF {
			return recs, r.Torn(), nil
		}
		if err == nil {
			if err = add(line); err != nil {
				err = fmt.Errorf("line %d: %w", r.Line(), err)
			}
		}
		if err != nil {
			return recs, 0, err
		}
	}
}

// checkReader pins the Reader against the contract on data.
func checkReader(t *testing.T, data []byte) {
	t.Helper()
	want, errLine, torn := contract(data)
	got, gotTorn, err := readAll(data)
	switch {
	case errLine > 0 && !namesLine(err, errLine):
		t.Fatalf("Reader error %v, want one naming line %d", err, errLine)
	case errLine == 0 && (err != nil || !reflect.DeepEqual(got, want) || (gotTorn > 0) != torn):
		t.Fatalf("Reader read %q (torn line %d, err %v), want %q (torn %v)", got, gotTorn, err, want, torn)
	}
}

// checkOpen pins Open against the contract on data: it fails naming
// the contract's error line, or replays exactly the valid prefix; then
// one Append, one AppendLines and a reopen read that prefix plus the
// appended records.
func checkOpen(t *testing.T, data []byte) {
	t.Helper()
	want, errLine, torn := contract(data)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	w, err := Open(path, false, decodeRaw(&got))
	if errLine > 0 {
		if !namesLine(err, errLine) {
			t.Fatalf("Open = %v, want an error naming line %d", err, errLine)
		}
		return
	}
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !reflect.DeepEqual(got, want) || w.Replayed != len(want) || (w.Torn > 0) != torn {
		t.Fatalf("Open replayed %q (count %d, torn line %d), want %q (torn %v)", got, w.Replayed, w.Torn, want, torn)
	}
	const appended = `{"appended":true}`
	if err := w.Append(json.RawMessage(appended)); err != nil {
		t.Fatal(err)
	}
	block := []string{`{"block":1}`, `{"block":2}`}
	if err := w.AppendLines([]byte(strings.Join(block, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got = nil
	w, err = Open(path, false, decodeRaw(&got))
	if err != nil {
		t.Fatalf("reopen after append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want = append(append(want, appended), block...); !reflect.DeepEqual(got, want) || w.Torn != 0 {
		t.Fatalf("reopen after append read %q (torn line %d), want %q", got, w.Torn, want)
	}
}

// TestCorruptTable runs the shared corruption table against the codec
// itself: the written-out contract agrees with each case's verdict, the
// Reader and Open agree with the contract, and every tolerated case
// survives an append and a reopen.
func TestCorruptTable(t *testing.T) {
	all, _, _ := contract([]byte(intactLog))
	for i, tc := range corrupt.Cases() {
		data := tc.Mutate([]byte(intactLog))
		if *updateCorpus {
			writeSeed(t, fmt.Sprintf("%02d-%s", i, tc.Name), data)
		}
		want, errLine, torn := contract(data)
		switch {
		case tc.Want == corrupt.WantAll && (len(want) != len(all) || errLine > 0 || torn),
			tc.Want == corrupt.WantTorn && (!torn || errLine > 0),
			tc.Want == corrupt.WantErr && errLine == 0:
			t.Fatalf("%s: the contract disagrees with the table's verdict", tc.Name)
		}
		t.Run(tc.Name, func(t *testing.T) {
			checkReader(t, data)
			checkOpen(t, data)
		})
	}
}

// writeSeed stores data as one seed of FuzzJournalReplay.
func writeSeed(t *testing.T, name string, data []byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzJournalReplay is the one fuzz target for every reader on the
// codec (checkpoint, observe journal, observation log): any byte
// string fails Open naming a line or replays exactly its valid prefix,
// a record append, a block append and a reopen read that prefix plus
// the records, and nothing panics. The seed corpus is the corrupt table applied to intactLog
// (go test ./internal/jsonl -run TestCorruptTable -update-fuzz-corpus).
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReader(t, data)
		checkOpen(t, data)
	})
}

// TestTrimSpace: TrimSpace strips exactly JSON's four whitespace bytes
// from both ends, keeps every other byte bytes.TrimSpace would strip,
// and does not allocate.
func TestTrimSpace(t *testing.T) {
	for in, want := range map[string]string{
		" \t\r\n{}\n\r\t ": "{}",
		" \t\r\n":          "",
		"{} \v":            "{} \v",
		"\f{}":             "\f{}",
		"{}\u0085":         "{}\u0085",
		"\u00a0{}\n":       "\u00a0{}",
		"{\v}":             "{\v}",
	} {
		if got := TrimSpace([]byte(in)); string(got) != want {
			t.Errorf("TrimSpace(%q) = %q, want %q", in, got, want)
		}
	}
	line := []byte(" {\"a\":1}\r\n")
	if n := testing.AllocsPerRun(100, func() { _ = TrimSpace(line) }); n != 0 {
		t.Errorf("TrimSpace allocates %v times per call", n)
	}
}

// TestReaderLineCap: a capped reader accepts a line of exactly the cap
// and rejects a longer one naming its line; an uncapped reader reads
// any length.
func TestReaderLineCap(t *testing.T) {
	const limit = 100
	rec := func(n int) string { return `"` + strings.Repeat("x", n-2) + `"` }
	data := []byte(rec(10) + "\n" + rec(limit) + "\n" + rec(limit+1) + "\n")
	r := NewReader(bytes.NewReader(data), limit)
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("record %d: %v", i+1, err)
		}
	}
	if _, err := r.Next(); !namesLine(err, 3) {
		t.Fatalf("over-cap line: err %v, want an error naming line 3", err)
	}
	long := []byte(rec(1<<20) + "\n")
	if line, err := NewReader(bytes.NewReader(long), 0).Next(); err != nil || len(line) != 1<<20 {
		t.Fatalf("uncapped reader: %d bytes, err %v", len(line), err)
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestAppendOneWrite: each record, and each block of whole lines,
// reaches the destination in one Write, the property that limits a
// crash to whole lines and one torn line.
func TestAppendOneWrite(t *testing.T) {
	var cw countingWriter
	w := NewWriter(&cw)
	for i := 0; i < 3; i++ {
		if err := w.Append(map[string]any{"seq": i, "pad": strings.Repeat("p", 10000)}); err != nil {
			t.Fatal(err)
		}
	}
	if cw.writes != 3 || bytes.Count(cw.Bytes(), []byte("\n")) != 3 {
		t.Fatalf("3 appends made %d writes and %d lines", cw.writes, bytes.Count(cw.Bytes(), []byte("\n")))
	}
	block := bytes.Repeat([]byte(`{"pad":"`+strings.Repeat("p", 10000)+`"}`+"\n"), 5)
	if err := w.AppendLines(block); err != nil || cw.writes != 4 || bytes.Count(cw.Bytes(), []byte("\n")) != 8 {
		t.Fatalf("a 5-line block: err %v, %d writes and %d lines in all", err, cw.writes, bytes.Count(cw.Bytes(), []byte("\n")))
	}
	if err := w.AppendLines(block[:len(block)-1]); err == nil || cw.writes != 4 {
		t.Fatalf("a block without its final newline: err %v after %d writes, want an error and no write", err, cw.writes)
	}
}

// Package corrupt is the shared corruption model for the repository's
// append-only JSONL files: the campaign checkpoint, the daemon's
// observation journal and the observation log, which all read through
// one codec (internal/jsonl) under one contract. A torn tail — a final
// line with no newline that is not valid JSON, the footprint of a crash
// mid-append — is dropped; every other line must hold exactly one JSON
// value, with nothing around it but JSON whitespace (space, tab, CR,
// LF). The table drives the codec's tests and both readers', so the
// contract cannot drift between them. Every record reads under intact,
// blank-interior-lines, final-record-unterminated and
// json-whitespace-around-record; the torn-* cases keep the records
// before the tail; garbage-mid-file, truncated-mid-file-line,
// garbage-terminated-final-line, two-records-one-line,
// trailing-junk-after-record, vertical-tab-after-record and
// nbsp-after-record are errors.
package corrupt

import "bytes"

// Outcome classifies what a reader must do with a mutated log.
type Outcome int

const (
	// WantAll: the mutation is harmless; every record still reads.
	WantAll Outcome = iota
	// WantTorn: only the final record is damaged (torn tail); the
	// reader must recover the intact prefix and stop cleanly.
	WantTorn
	// WantErr: the damage is not a torn tail; the reader must fail.
	WantErr
)

// Case is one deterministic journal mutation.
type Case struct {
	Name string
	// Mutate transforms an intact JSONL journal (complete lines, each
	// newline-terminated, at least three records).
	Mutate func(data []byte) []byte
	// Want is the required reader behaviour on the mutated journal.
	Want Outcome
}

// lastLineStart returns the offset of the final non-empty line.
func lastLineStart(data []byte) int {
	trimmed := bytes.TrimRight(data, "\n")
	if i := bytes.LastIndexByte(trimmed, '\n'); i >= 0 {
		return i + 1
	}
	return 0
}

// Cases returns the shared corruption table. Mutations that model a
// crash mid-append cut the trailing newline too — a torn line is by
// definition unterminated.
func Cases() []Case {
	return []Case{
		{
			Name:   "intact",
			Mutate: func(data []byte) []byte { return data },
			Want:   WantAll,
		},
		{
			Name: "blank-interior-lines",
			Mutate: func(data []byte) []byte {
				i := lastLineStart(data)
				out := append([]byte{}, data[:i]...)
				out = append(out, '\n', '\n')
				return append(out, data[i:]...)
			},
			Want: WantAll,
		},
		{
			Name: "torn-final-line-mid-record",
			Mutate: func(data []byte) []byte {
				trimmed := bytes.TrimRight(data, "\n")
				cut := lastLineStart(data) + (len(trimmed)-lastLineStart(data))/2
				return append([]byte{}, data[:cut]...)
			},
			Want: WantTorn,
		},
		{
			Name: "torn-final-line-one-byte",
			Mutate: func(data []byte) []byte {
				i := lastLineStart(data)
				return append(append([]byte{}, data[:i]...), '{')
			},
			Want: WantTorn,
		},
		{
			Name: "torn-extra-fragment-after-intact-log",
			Mutate: func(data []byte) []byte {
				return append(append([]byte{}, data...), []byte(`{"half":`)...)
			},
			Want: WantTorn,
		},
		{
			Name: "garbage-mid-file",
			Mutate: func(data []byte) []byte {
				lines := bytes.SplitN(data, []byte("\n"), 3)
				return bytes.Join([][]byte{lines[0], []byte(`{broken`), lines[2]}, []byte("\n"))
			},
			Want: WantErr,
		},
		{
			Name: "truncated-mid-file-line",
			Mutate: func(data []byte) []byte {
				lines := bytes.SplitN(data, []byte("\n"), 3)
				half := lines[1][:len(lines[1])/2]
				return bytes.Join([][]byte{lines[0], half, lines[2]}, []byte("\n"))
			},
			Want: WantErr,
		},
		{
			// A newline proves the line was written whole: damage, not a tear.
			Name:   "garbage-terminated-final-line",
			Mutate: func(data []byte) []byte { return append(append([]byte{}, data...), "{broken\n"...) },
			Want:   WantErr,
		},
		{
			Name: "two-records-one-line",
			Mutate: func(data []byte) []byte {
				i := lastLineStart(data)
				return append(append([]byte{}, data[:i-1]...), data[i:]...)
			},
			Want: WantErr,
		},
		{
			Name: "trailing-junk-after-record",
			Mutate: func(data []byte) []byte {
				lines := bytes.SplitN(data, []byte("\n"), 3)
				return bytes.Join([][]byte{lines[0], append(lines[1], "xyz"...), lines[2]}, []byte("\n"))
			},
			Want: WantErr,
		},
		{
			// A crash between a record's bytes and its newline: the record is whole.
			Name:   "final-record-unterminated",
			Mutate: func(data []byte) []byte { return bytes.TrimRight(data, "\n") },
			Want:   WantAll,
		},
		{
			Name:   "json-whitespace-around-record",
			Mutate: func(data []byte) []byte { return padSecondRecord(data, " \t\r", " \t\r") },
			Want:   WantAll,
		},
		{
			// bytes.TrimSpace strips \v; JSON does not allow it.
			Name:   "vertical-tab-after-record",
			Mutate: func(data []byte) []byte { return padSecondRecord(data, "", "\v") },
			Want:   WantErr,
		},
		{
			// bytes.TrimSpace strips U+00A0; JSON does not allow it.
			Name:   "nbsp-after-record",
			Mutate: func(data []byte) []byte { return padSecondRecord(data, "", "\u00a0") },
			Want:   WantErr,
		},
	}
}

// padSecondRecord puts before and after around the second line's
// record, inside its newline.
func padSecondRecord(data []byte, before, after string) []byte {
	lines := bytes.SplitN(data, []byte("\n"), 3)
	padded := append(append([]byte(before), lines[1]...), after...)
	return bytes.Join([][]byte{lines[0], padded, lines[2]}, []byte("\n"))
}

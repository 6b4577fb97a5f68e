// Package textutil mirrors the repo's report tables: rows and notes
// render in the order they are added.
package textutil

import "fmt"

// Table is a titled grid with footnotes.
type Table struct {
	Rows  [][]string
	Notes []string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

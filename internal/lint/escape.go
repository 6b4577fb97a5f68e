package lint

import (
	"bufio"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"strconv"
	"strings"
)

// Cross-check of the compiler's own escape analysis against the
// hot-path call graph. allocfree proves allocation-freedom from the
// AST up; `go build -gcflags=-m` proves it from the SSA down. The two
// disagree exactly where one of them is wrong, so check.sh runs both:
// this file parses the compiler's diagnostics and reports any
// "escapes to heap" / "moved to heap" that lands inside a function
// the //hot:path walk covers. Findings are reported under the
// allocfree analyzer name so one //lint:ignore allocfree line
// suppresses both sides.

// escapeHit is one heap diagnostic from the compiler log.
type escapeHit struct {
	file string // as printed by the compiler (build-dir relative)
	line int
	col  int
	msg  string
}

// parseEscapeLog extracts the heap-allocation diagnostics from the
// stderr of `go build -gcflags=-m`. Package headers (`# path`) and
// non-allocation notes (leaking param, inlining) are skipped; a line
// that does not parse as file:line:col is skipped rather than fatal,
// because the compiler interleaves free-form notes.
func parseEscapeLog(r io.Reader) ([]escapeHit, error) {
	var hits []escapeHit
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		ln, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		hits = append(hits, escapeHit{
			file: parts[0],
			line: ln,
			col:  col,
			msg:  strings.TrimSpace(parts[3]),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lint: reading escape log: %w", err)
	}
	return hits, nil
}

// fnRange is one covered function's source extent, with the first
// root that reaches it.
type fnRange struct {
	startLine int
	endLine   int
	fi        *funcInfo
	root      *funcInfo
}

// CrossCheckEscapes loads the module at cfg, parses a
// `go build -gcflags=-m` log, and returns one allocfree diagnostic for
// every heap allocation the compiler found inside a hot-path-covered
// function. lint:ignore suppressions apply; malformed directives are
// NOT re-reported here (the regular run owns that).
func CrossCheckEscapes(cfg Config, log io.Reader) ([]Diagnostic, error) {
	hits, err := parseEscapeLog(log)
	if err != nil {
		return nil, err
	}
	pkgs, fset, err := Load(cfg)
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}

	mp := &ModulePass{Fset: fset, Pkgs: pkgs, report: func(token.Pos, string) {}}
	ranges := make(map[string][]fnRange)
	walkHot(buildCallIndex(mp), func(fi, root *funcInfo) {
		pos := fset.Position(fi.decl.Pos())
		ranges[pos.Filename] = append(ranges[pos.Filename], fnRange{
			startLine: pos.Line,
			endLine:   fset.Position(fi.decl.End()).Line,
			fi:        fi,
			root:      root,
		})
	})

	known := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	ignores := &ignoreSet{byFileLine: make(map[string]map[int]map[string]bool)}
	for _, pkg := range pkgs {
		unitIgnores, _ := collectIgnores(fset, pkg, known)
		for file, lines := range unitIgnores.byFileLine {
			ignores.byFileLine[file] = lines
		}
	}

	var diags []Diagnostic
	for _, h := range hits {
		abs := h.file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(root, filepath.FromSlash(h.file))
		}
		fn := enclosing(ranges[abs], h.line)
		if fn == nil || ignores.suppressed(AnalyzerAllocFree.Name, abs, h.line) {
			continue
		}
		rel := h.file
		if r, err := filepath.Rel(root, abs); err == nil && !strings.HasPrefix(r, "..") {
			rel = filepath.ToSlash(r)
		}
		diags = append(diags, Diagnostic{
			File:     rel,
			Line:     h.line,
			Col:      h.col,
			Analyzer: AnalyzerAllocFree.Name,
			Message: fmt.Sprintf("compiler escape analysis: %s %s",
				h.msg, hotWhere(fn.fi, fn.root)),
		})
	}
	sortDiagnostics(diags)
	return diags, nil
}

// enclosing finds the covered function containing line, preferring the
// innermost (latest-starting) range so methods declared after one
// another resolve correctly.
func enclosing(ranges []fnRange, line int) *fnRange {
	var best *fnRange
	for i := range ranges {
		r := &ranges[i]
		if line < r.startLine || line > r.endLine {
			continue
		}
		if best == nil || r.startLine > best.startLine {
			best = r
		}
	}
	return best
}

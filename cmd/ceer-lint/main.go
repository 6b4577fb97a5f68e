// Command ceer-lint runs the project's static analyzer suite
// (internal/lint) over the module: allocfree, atomics, ctxflow,
// devicegeneric, determinism, errdrop, floatcmp, and poolpair. It
// exits 0 when the tree is clean, 1 when any diagnostic survives, and
// 2 when the module fails to load or type-check.
//
// Usage:
//
//	ceer-lint [-C dir] [-json|-sarif] [-analyzers a,b] [-list]
//	ceer-lint [-C dir] [-json|-sarif] -escape-log build.log
//
// Findings print as file:line:col: analyzer: message, sorted by
// (file, line, col, analyzer), as a JSON array with -json, or as a
// SARIF 2.1.0 log with -sarif — the ordering is identical in every
// mode so CI diffs are deterministic. Individual findings are
// suppressed in source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it.
//
// With -escape-log, ceer-lint instead cross-checks the compiler's own
// escape analysis against the hot-path call graph: the log is the
// stderr of `go build -gcflags=-m ./...`, and any "escapes to heap"
// or "moved to heap" diagnostic landing inside a //hot:path-reachable
// function is reported (under the allocfree analyzer name, so the
// same line suppressions apply). See scripts/lint-escape.sh.
package main

import (
	"flag"
	"fmt"
	"os"

	"ceer/internal/lint"
)

func main() {
	var (
		dir       = flag.String("C", ".", "module root (directory containing go.mod)")
		jsonOut   = flag.Bool("json", false, "emit diagnostics as a JSON array")
		sarifOut  = flag.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
		analyzers = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list      = flag.Bool("list", false, "list the available analyzers and exit")
		escapeLog = flag.String("escape-log", "", "cross-check a `go build -gcflags=-m` log against the hot-path call graph")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "ceer-lint: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	var diags []lint.Diagnostic
	if *escapeLog != "" {
		f, err := os.Open(*escapeLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ceer-lint:", err)
			os.Exit(2)
		}
		diags, err = lint.CrossCheckEscapes(lint.Config{Dir: *dir}, f)
		// read-only file; nothing buffered to flush on close
		_ = f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ceer-lint:", err)
			os.Exit(2)
		}
	} else {
		suite, err := lint.ByName(*analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ceer-lint:", err)
			os.Exit(2)
		}
		diags, err = lint.Run(lint.Config{Dir: *dir}, suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ceer-lint:", err)
			os.Exit(2)
		}
	}

	switch {
	case *jsonOut:
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "ceer-lint:", err)
			os.Exit(2)
		}
	case *sarifOut:
		if err := lint.WriteSARIF(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "ceer-lint:", err)
			os.Exit(2)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut && !*sarifOut {
			fmt.Fprintf(os.Stderr, "ceer-lint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

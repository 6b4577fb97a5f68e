package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerDeterminism guards the repo's byte-identical reproducibility
// contract (ROADMAP: same campaign, same predictor JSON, same
// recommendation, every run). On the packages that sit on the result
// path it forbids the three classic nondeterminism leaks:
//
//   - wall-clock reads (time.Now/Since/Until),
//   - the global math/rand source (seeded per-process; internal/rng
//     derives streams from device SeedIDs instead),
//   - process environment reads (os.Getenv and friends), and
//   - iterating a map while feeding an output slice, string, or
//     emitted line without an intervening sort — Go randomizes map
//     iteration order per run.
//
// Test files are exempt: they are not on a result path and routinely
// time things.
var AnalyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc: "forbids wall-clock, global rand, env reads, and unsorted " +
		"map-order-dependent output on the result path",
	Scope: []string{
		"internal/sim",
		"internal/ceer",
		"internal/graph",
		"internal/experiments",
		"internal/par",
		"internal/regress",
		"internal/drift",
		// The linter lints itself: diagnostic order is part of the
		// CLI contract (golden-pinned), so its own output paths must
		// not depend on map iteration order or wall-clock.
		"internal/lint",
	},
	Run: runDeterminism,
}

// bannedFuncs maps package path -> function name -> why it is banned.
// Only package-level functions are matched; methods (e.g. a seeded
// (*rand.Rand).Int63) are deterministic and stay legal.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":   "reads the wall clock",
		"Since": "reads the wall clock",
		"Until": "reads the wall clock",
	},
	"os": {
		"Getenv":    "reads the process environment",
		"LookupEnv": "reads the process environment",
		"Environ":   "reads the process environment",
	},
	"math/rand":    globalRandFuncs,
	"math/rand/v2": globalRandFuncs,
}

var globalRandFuncs = map[string]string{
	"Int": "draws from the global rand source", "Intn": "draws from the global rand source",
	"IntN": "draws from the global rand source", "Int31": "draws from the global rand source",
	"Int31n": "draws from the global rand source", "Int32": "draws from the global rand source",
	"Int32N": "draws from the global rand source", "Int63": "draws from the global rand source",
	"Int63n": "draws from the global rand source", "Int64": "draws from the global rand source",
	"Int64N": "draws from the global rand source", "Uint32": "draws from the global rand source",
	"Uint32N": "draws from the global rand source", "Uint64": "draws from the global rand source",
	"Uint64N": "draws from the global rand source", "UintN": "draws from the global rand source",
	"Uint": "draws from the global rand source", "Float32": "draws from the global rand source",
	"Float64": "draws from the global rand source", "ExpFloat64": "draws from the global rand source",
	"NormFloat64": "draws from the global rand source", "Perm": "draws from the global rand source",
	"Shuffle": "draws from the global rand source", "Read": "draws from the global rand source",
	"Seed": "reseeds the global rand source", "N": "draws from the global rand source",
}

func runDeterminism(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		if pass.IsTestFile(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkBannedCall(pass, call)
			}
			return true
		})
		checkMapOrderedOutput(pass, file)
	}
}

// checkBannedCall flags calls to the nondeterministic package-level
// functions in bannedFuncs.
func checkBannedCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return
	}
	if why, banned := bannedFuncs[fn.Pkg().Path()][fn.Name()]; banned {
		pass.Reportf(call.Pos(), "%s.%s %s; results become run-dependent",
			fn.Pkg().Name(), fn.Name(), why)
	}
}

// checkMapOrderedOutput flags range-over-map loops whose iteration
// order escapes into ordered output: an append to a variable declared
// outside the loop (unless a later call in the same function sorts
// it), string concatenation onto an outer variable, or a direct
// fmt/Write emission from inside the loop body.
func checkMapOrderedOutput(pass *Pass, file *ast.File) {
	var funcs []*ast.FuncDecl
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			funcs = append(funcs, fd)
		}
	}
	for _, fd := range funcs {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRangeBody(pass, fd, rs)
			return true
		})
	}
}

func checkMapRangeBody(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isEmissionCall(pass, n) {
				pass.Reportf(n.Pos(), "emits output inside map iteration; map order is randomized per run")
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, fd, rs, n)
		}
		return true
	})
}

// checkMapRangeAssign handles `x = append(x, ...)` and `s += ...`
// inside a map-range body when the target is declared outside the loop.
func checkMapRangeAssign(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) {
			continue
		}
		lhs := as.Lhs[i]
		if !declaredOutside(pass, rs, lhs) {
			continue
		}
		target := types.ExprString(lhs)
		if sortedAfter(pass, fd, rs, target) {
			continue
		}
		pass.Reportf(as.Pos(),
			"append to %s inside map iteration without a later sort; map order is randomized per run", target)
	}
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		if t := pass.Info.TypeOf(as.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 &&
				declaredOutside(pass, rs, as.Lhs[0]) {
				pass.Reportf(as.Pos(),
					"string concatenation onto %s inside map iteration; map order is randomized per run",
					types.ExprString(as.Lhs[0]))
			}
		}
	}
}

// isEmissionCall reports whether a call writes a line out: the fmt
// print family, a Write/WriteString-style method, or a row or note
// added to a report table (internal/textutil.Table), whose order is
// the rendered order.
func isEmissionCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			if fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
				return true
			}
			if fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
				return true
			}
			if isTableEmission(fn) {
				return true
			}
		}
		switch fun.Sel.Name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			// Method writes (builders, buffers, writers) emit in loop order.
			if sel, ok := pass.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				return true
			}
		}
	}
	return false
}

// tablePkg is the report-table package, matched by path suffix the way
// Analyzer.Scope matches packages.
const tablePkg = "internal/textutil"

// isTableEmission reports whether fn is (*Table).AddRow or AddNote of
// the report-table package.
func isTableEmission(fn *types.Func) bool {
	if fn.Name() != "AddRow" && fn.Name() != "AddNote" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Table" && inScope([]string{tablePkg}, fn.Pkg().Path())
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// declaredOutside reports whether the root identifier of expr refers to
// an object declared outside the range statement (so loop-local
// accumulators don't count — their order dependence dies with the
// loop... unless they're emitted, which the emission check catches).
func declaredOutside(pass *Pass, rs *ast.RangeStmt, expr ast.Expr) bool {
	id := rootIdent(expr)
	if id == nil {
		return false
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// rootIdent digs the base identifier out of selector/index chains:
// out.HeavyTypes -> out, keys[i] -> keys.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether, later in the same function, a call whose
// name mentions "sort" receives the appended target (sort.Slice(keys,
// ...), sortTypes(out.HeavyTypes), slices.Sort(ids), ...). That is the
// repo's canonical collect-keys-then-sort idiom and it launders the map
// order out of the result.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		name := calleeName(call)
		if !strings.Contains(strings.ToLower(name), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if strings.Contains(types.ExprString(arg), target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// calleeName renders the full called expression (sort.Slice,
// sortTypes, slices.SortFunc, ...) so the "mentions sort" test sees
// the package qualifier too.
func calleeName(call *ast.CallExpr) string {
	return types.ExprString(ast.Unparen(call.Fun))
}

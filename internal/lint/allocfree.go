package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerAllocFree is the hot-path proof. It checks the serving
// path's lock-free, zero-allocation contract (DESIGN.md §9, §13)
// statically: every function reachable from a //hot:path root through
// static calls must be free of allocating constructs, lock acquisition
// and map indexing. The walk covers the whole call graph (walkHot), so
// a helper refactor cannot smuggle an allocation, a lock or a map read
// under an unmarked function. Interface and function-value calls
// cannot be proven and are reported as such; each one either gets a
// //lint:ignore allocfree with a reason or the code is restructured.
// //hot:exempt <reason> functions are vetted boundaries (amortized
// append encoders, cold admin endpoints) the walk does not enter.
var AnalyzerAllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "proves every function reachable from a //hot:path root free " +
		"of allocating constructs, lock acquisition and map indexing",
	RunModule: runAllocFree,
}

// allocFreePkgs are external packages every function of which is
// allocation-free: pure arithmetic or atomic word operations.
var allocFreePkgs = map[string]bool{
	"math":         true,
	"math/bits":    true,
	"sync/atomic":  true,
	"unicode/utf8": true,
}

// allocFreeFuncs are individually vetted external functions and
// methods, keyed like funcKey. Mutex releases and sync.Pool Get/Put
// never allocate (Pool recycling is amortized; lifecycle discipline is
// the poolpair analyzer's job); the strconv parsers and append-style
// formatters work in caller storage or on the stack; the strings
// scanners only read. Lock acquisition is never listed: the walk
// reports it (see lockAcquire).
var allocFreeFuncs = map[string]bool{
	"errors.Is":                 true,
	"strconv.AppendBool":        true,
	"strconv.AppendFloat":       true,
	"strconv.AppendInt":         true,
	"strconv.AppendUint":        true,
	"strconv.Atoi":              true,
	"strconv.ParseBool":         true,
	"strconv.ParseFloat":        true,
	"strconv.ParseInt":          true,
	"strconv.ParseUint":         true,
	"strings.Compare":           true,
	"strings.Count":             true,
	"strings.EqualFold":         true,
	"strings.HasPrefix":         true,
	"strings.HasSuffix":         true,
	"strings.Index":             true,
	"strings.IndexByte":         true,
	"strings.LastIndex":         true,
	"sync.Mutex.Unlock":         true,
	"sync.Pool.Get":             true,
	"sync.Pool.Put":             true,
	"sync.RWMutex.RUnlock":      true,
	"sync.RWMutex.Unlock":       true,
	"time.Duration.Nanoseconds": true,
	"time.Duration.Seconds":     true,
	"time.Now":                  true,
	"time.Since":                true,
}

// lockAcquire names the sync methods that take a lock. The hot path
// is lock-free, so the walk reports each one, called or taken as a
// method value.
var lockAcquire = map[string]bool{
	"Lock":     true,
	"RLock":    true,
	"TryLock":  true,
	"TryRLock": true,
}

// acquiresLock reports whether f is a sync lock-acquisition method.
func acquiresLock(f *types.Func) bool {
	return f.Pkg() != nil && f.Pkg().Path() == "sync" && lockAcquire[f.Name()]
}

func runAllocFree(p *ModulePass) {
	idx := buildCallIndex(p)
	walkHot(idx, func(fi, root *funcInfo) {
		w := &allocWalker{p: p, fi: fi, root: root, idx: idx}
		w.walk(fi.decl.Type, fi.decl.Body)
	})
}

// allocWalker checks one function body the hot-path walk covers.
type allocWalker struct {
	p    *ModulePass
	fi   *funcInfo
	root *funcInfo
	idx  *callIndex
}

func (w *allocWalker) info() *types.Info { return w.fi.pkg.Info }

func (w *allocWalker) reportf(pos token.Pos, format string, args ...any) {
	w.p.Reportf(pos, format+" "+hotWhere(w.fi, w.root), args...)
}

// walk inspects one function or literal body. Nested literals are
// recursed into explicitly so return statements always resolve against
// the innermost signature. Called holds the selectors in call position
// (ast.Inspect visits a call before its Fun): a sync lock method
// reached as any other selector is a method value, which takes the
// lock wherever it is later called.
func (w *allocWalker) walk(ftype *ast.FuncType, body *ast.BlockStmt) {
	results := resultTypes(w.info(), ftype)
	called := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.reportf(n.Pos(), "function literal allocates a closure")
			w.walk(n.Type, n.Body)
			return false
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				called[sel] = true
			}
			w.call(n)
		case *ast.SelectorExpr:
			if f, ok := w.info().Uses[n.Sel].(*types.Func); ok && acquiresLock(f) && !called[n] {
				w.reportf(n.Pos(), "method value of sync %s captured", f.Name())
			}
		case *ast.IndexExpr:
			if _, ok := w.typeOf(n.X).Underlying().(*types.Map); ok {
				w.reportf(n.Pos(), "map index")
			}
		case *ast.CompositeLit:
			switch w.typeOf(n).Underlying().(type) {
			case *types.Slice:
				w.reportf(n.Pos(), "slice literal allocates")
			case *types.Map:
				w.reportf(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					w.reportf(n.Pos(), "address of composite literal escapes and allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(w.typeOf(n.X)) && !isConstExpr(w.info(), n) {
				w.reportf(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			w.assign(n)
		case *ast.ReturnStmt:
			for i, res := range n.Results {
				if i < len(results) && w.boxes(res, results[i]) {
					w.reportf(res.Pos(), "return boxes %s into interface %s",
						w.typeOf(res), results[i])
				}
			}
		case *ast.GoStmt:
			w.reportf(n.Pos(), "go statement allocates a goroutine")
		}
		return true
	})
}

func (w *allocWalker) typeOf(e ast.Expr) types.Type {
	if t := w.info().TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

func (w *allocWalker) call(call *ast.CallExpr) {
	kind, obj := resolveCall(w.info(), call)
	switch kind {
	case calleeConversion:
		w.conversion(call)
	case calleeBuiltin:
		switch obj.Name() {
		case "make":
			w.reportf(call.Pos(), "make allocates")
		case "new":
			w.reportf(call.Pos(), "new allocates")
		case "append":
			w.reportf(call.Pos(), "append may grow its backing array")
		}
	case calleeStatic:
		f := obj.(*types.Func)
		if f.Pkg() != nil && w.idx.modulePkgs[f.Pkg().Path()] {
			w.checkArgs(call, f.Type().(*types.Signature))
			if key := funcKey(f); w.idx.fns[key] == nil {
				// A module function without an indexed body (declared
				// in a test file, say) would leave a hole in the proof.
				w.reportf(call.Pos(), "call to %s has no vetted body (unprovable)", key)
			}
		} else {
			w.external(call, f)
		}
	case calleeDynamic:
		f := obj.(*types.Func)
		w.reportf(call.Pos(),
			"dynamic call %s through an interface is unprovable; vet the implementations and add //lint:ignore allocfree <reason>",
			f.Name())
	case calleeUnknown:
		w.reportf(call.Pos(),
			"call through a function value is unprovable; add //lint:ignore allocfree <reason>")
	case calleeLiteral:
		// The literal node itself reports and recurses.
	}
}

// external vets a call that leaves the module: lock acquisition is
// reported, everything else is checked against the allowlist.
func (w *allocWalker) external(call *ast.CallExpr, f *types.Func) {
	if acquiresLock(f) {
		w.reportf(call.Pos(), "sync %s acquired", f.Name())
		return
	}
	path := ""
	if f.Pkg() != nil {
		path = f.Pkg().Path()
	}
	if allocFreePkgs[path] {
		w.checkArgs(call, f.Type().(*types.Signature))
		return
	}
	key := funcKey(f)
	if allocFreeFuncs[key] {
		w.checkArgs(call, f.Type().(*types.Signature))
		return
	}
	if path == "fmt" || path == "errors" {
		w.reportf(call.Pos(),
			"%s formats through interfaces and allocates; hot paths return precomputed values or static errors",
			key)
		return
	}
	w.reportf(call.Pos(), "call to %s is outside the allocation-free allowlist (unprovable)", key)
}

// checkArgs flags interface boxing of concrete arguments and implicit
// variadic slice construction at a call whose signature is known.
// Everything is reported at the call position, so one line-level
// lint:ignore covers a call however its arguments wrap.
func (w *allocWalker) checkArgs(call *ast.CallExpr, sig *types.Signature) {
	if sig == nil {
		return
	}
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() {
		if call.Ellipsis == token.NoPos && len(call.Args) >= n {
			w.reportf(call.Pos(), "variadic call allocates its argument slice")
		}
		for i, arg := range call.Args {
			var pt types.Type
			if i < n-1 {
				pt = params.At(i).Type()
			} else if call.Ellipsis == token.NoPos {
				pt = params.At(n - 1).Type().(*types.Slice).Elem()
			} else {
				break
			}
			if w.boxes(arg, pt) {
				w.reportf(call.Pos(), "argument %d is boxed into interface %s", i+1, pt)
			}
		}
		return
	}
	for i, arg := range call.Args {
		if i >= n {
			break
		}
		if w.boxes(arg, params.At(i).Type()) {
			w.reportf(call.Pos(), "argument %d is boxed into interface %s", i+1, params.At(i).Type())
		}
	}
}

// conversion flags the converting forms that copy: to string, string
// to byte/rune slice, and into an interface.
func (w *allocWalker) conversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	target := w.typeOf(call.Fun)
	src := w.typeOf(call.Args[0])
	switch {
	case isStringType(target) && !isStringType(src) && !isUntypedConst(w.info(), call.Args[0]):
		w.reportf(call.Pos(), "conversion to string allocates")
	case isByteOrRuneSlice(target) && isStringType(src):
		w.reportf(call.Pos(), "string to %s conversion copies and allocates", target)
	case w.boxes(call.Args[0], target):
		w.reportf(call.Pos(), "conversion boxes %s into interface %s", src, target)
	}
}

func (w *allocWalker) assign(n *ast.AssignStmt) {
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(w.typeOf(n.Lhs[0])) {
		w.reportf(n.Pos(), "string concatenation allocates")
	}
	if (n.Tok == token.ASSIGN) && len(n.Lhs) == len(n.Rhs) {
		for i := range n.Lhs {
			if w.boxes(n.Rhs[i], w.typeOf(n.Lhs[i])) {
				w.reportf(n.Rhs[i].Pos(), "assignment boxes %s into interface %s",
					w.typeOf(n.Rhs[i]), w.typeOf(n.Lhs[i]))
			}
		}
	}
}

// boxes reports whether assigning expr to target converts a concrete
// non-pointer-shaped value into an interface — the conversion that
// calls the allocator. Pointer-shaped values (pointers, maps, chans,
// funcs) fit the interface word directly.
func (w *allocWalker) boxes(expr ast.Expr, target types.Type) bool {
	if target == nil || !types.IsInterface(target) {
		return false
	}
	t := w.typeOf(expr)
	if t == types.Typ[types.Invalid] || types.IsInterface(t) {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return false
	}
	return true
}

// resultTypes lists a signature's declared result types, expanding
// grouped fields ("(a, b int)").
func resultTypes(info *types.Info, ftype *ast.FuncType) []types.Type {
	if ftype.Results == nil {
		return nil
	}
	var out []types.Type
	for _, field := range ftype.Results.List {
		t := info.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, t)
		}
	}
	return out
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Info()&types.IsUntyped != 0
}

// isConstExpr reports whether the expression folds to a constant (a
// constant string concatenation happens at compile time).
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

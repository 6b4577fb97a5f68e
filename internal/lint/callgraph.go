package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The call graph of the hot-path proof. It is built once per module
// pass from the non-test function declarations: //hot:path marks a
// root, //hot:exempt <reason> marks a vetted boundary the walk does not
// cross (the append-encoder and cold-admin functions, whose amortized
// allocation behaviour is pinned by benchmarks instead). Static calls
// resolve through go/types; interface and function-value calls cannot
// be resolved statically and are the caller's problem to justify (see
// allocfree.go). walkHot is the one walk over it: allocfree and the
// escape cross-check both take their covered set from it.

// hotPathDirective is the doc-comment line marking a hot-path root.
const hotPathDirective = "//hot:path"

// hotExemptDirective marks a function as a vetted hot-path boundary.
// The reason is mandatory, mirroring lint:ignore.
const hotExemptDirective = "//hot:exempt"

// funcInfo is one module function declaration in the call-graph index.
type funcInfo struct {
	key    string
	pkg    *Package
	decl   *ast.FuncDecl
	root   bool // carries //hot:path
	exempt bool // carries //hot:exempt <reason>
}

// display renders the function for diagnostics: "recv.name" for
// methods, "name" otherwise.
func (fi *funcInfo) display() string {
	if i := strings.LastIndexByte(fi.key, '/'); i >= 0 {
		return fi.key[i+1:][strings.IndexByte(fi.key[i+1:], '.')+1:]
	}
	return fi.key[strings.IndexByte(fi.key, '.')+1:]
}

// callIndex is the module-wide function index.
type callIndex struct {
	// fns maps funcKey strings to declarations; keys holds the same
	// keys sorted, for deterministic iteration.
	fns  map[string]*funcInfo
	keys []string
	// modulePkgs holds the import path of every analysis unit, so a
	// resolved callee can be classified in-module vs external without
	// relying on cross-unit object identity.
	modulePkgs map[string]bool
}

// buildCallIndex indexes every non-test function declaration of the
// module and parses the hot-path directives, reporting malformed or
// contradictory ones through the pass.
func buildCallIndex(p *ModulePass) *callIndex {
	idx := &callIndex{
		fns:        make(map[string]*funcInfo),
		modulePkgs: make(map[string]bool),
	}
	for _, pkg := range p.Pkgs {
		idx.modulePkgs[pkg.Path] = true
		if pkg.ExternalTest {
			continue
		}
		for _, file := range pkg.Files {
			if p.IsTestFile(file) {
				continue
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{key: funcKey(obj), pkg: pkg, decl: fn, root: isHotPath(fn)}
				fi.exempt = parseExempt(p, fn)
				if fi.root && fi.exempt {
					p.Reportf(fn.Name.Pos(),
						"%s is marked both //hot:path and //hot:exempt; pick one", fn.Name.Name)
					fi.exempt = false
				}
				idx.fns[fi.key] = fi
				idx.keys = append(idx.keys, fi.key)
			}
		}
	}
	sort.Strings(idx.keys)
	return idx
}

// isHotPath reports whether the function's doc comment carries the
// //hot:path directive on a line of its own.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == hotPathDirective {
			return true
		}
	}
	return false
}

// parseExempt reports whether fn carries a //hot:exempt directive,
// flagging a directive without a reason (at the function name, where a
// fixture want comment can sit).
func parseExempt(p *ModulePass, fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(c.Text)
		rest, ok := strings.CutPrefix(text, hotExemptDirective)
		if !ok {
			continue
		}
		if strings.TrimSpace(rest) == "" {
			p.Reportf(fn.Name.Pos(),
				"//hot:exempt on %s needs a reason (why is this boundary allocation-vetted?)",
				fn.Name.Name)
		}
		return true
	}
	return false
}

// funcKey names a function by "pkgpath.[RecvType.]Name". Object
// identity does not survive the loader's double type-check, so the
// call graph keys functions by these strings instead.
func funcKey(f *types.Func) string {
	key := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		name := t.String()
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		key = name + "." + key
	}
	if f.Pkg() != nil {
		key = f.Pkg().Path() + "." + key
	}
	return key
}

// calleeKind classifies what a call expression's function position
// resolved to.
type calleeKind uint8

const (
	// calleeUnknown is a function value (local variable, field, stored
	// method value): statically unresolvable.
	calleeUnknown calleeKind = iota
	// calleeStatic is a named function or a method on a concrete type.
	calleeStatic
	// calleeDynamic is a method called through an interface.
	calleeDynamic
	// calleeBuiltin is a builtin (make, new, append, len, ...).
	calleeBuiltin
	// calleeConversion is a type conversion, not a call.
	calleeConversion
	// calleeLiteral is an immediately invoked function literal; its
	// body is walked where the literal appears.
	calleeLiteral
)

// resolveCall classifies call and returns the resolved object:
// *types.Func for static and dynamic calls, *types.Builtin for
// builtins, nil otherwise.
func resolveCall(info *types.Info, call *ast.CallExpr) (calleeKind, types.Object) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return calleeConversion, nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			return calleeBuiltin, obj
		case *types.Func:
			return calleeStatic, obj
		}
		return calleeUnknown, nil
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, isFunc := sel.Obj().(*types.Func)
			if !isFunc {
				return calleeUnknown, nil // func-typed struct field
			}
			if sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()) {
				return calleeDynamic, f
			}
			return calleeStatic, f
		}
		// Package-qualified: strconv.Atoi, sync/atomic vars, ...
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			return calleeStatic, obj
		case *types.Builtin:
			return calleeBuiltin, obj
		}
		return calleeUnknown, nil
	case *ast.FuncLit:
		return calleeLiteral, nil
	}
	return calleeUnknown, nil
}

// walkHot is the hot-path proof's one walk. It follows static
// in-module calls from every //hot:path root, roots in sorted key
// order and callees in source order, and calls visit once for each
// function the proof covers, with the first root that reaches it. A
// //hot:exempt boundary is neither visited nor entered.
func walkHot(idx *callIndex, visit func(fi, root *funcInfo)) {
	seen := make(map[string]bool)
	var enter func(fi, root *funcInfo)
	enter = func(fi, root *funcInfo) {
		if fi.exempt || seen[fi.key] {
			return
		}
		seen[fi.key] = true
		visit(fi, root)
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if kind, obj := resolveCall(fi.pkg.Info, call); kind == calleeStatic {
					if callee := idx.fns[funcKey(obj.(*types.Func))]; callee != nil {
						enter(callee, root)
					}
				}
			}
			return true
		})
	}
	for _, key := range idx.keys {
		if fi := idx.fns[key]; fi.root {
			enter(fi, fi)
		}
	}
}

// hotWhere attributes a finding in fi to the walk that reached it:
// "in //hot:path function R" inside a root, "in F (reachable from
// //hot:path R)" below one.
func hotWhere(fi, root *funcInfo) string {
	if fi == root {
		return "in //hot:path function " + fi.display()
	}
	return "in " + fi.display() + " (reachable from //hot:path " + root.display() + ")"
}

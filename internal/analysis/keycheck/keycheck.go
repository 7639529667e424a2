// Package keycheck defines the fingerprint-completeness analyzer: the
// guard against the "field added in PR 12 silently poisons every PR 11
// store" bug class. The run cache and the durable result store address
// results by fingerprints and versioned codecs (Config.AppendKey,
// runcache.Key.AppendBinary, the runner's machine-model fingerprint
// behind StoreFingerprint, EncodeResult); a struct field that can change
// a result but is not mixed into its fingerprint or codec makes two
// different configurations collide on one stored record, and nothing
// fails until the wrong result is replayed.
//
// The analyzer is annotation-driven. A fingerprint or codec writer
// declares its coverage obligation in its doc comment:
//
//	//mixplint:key repro/internal/perfmodel.Machine -- why
//	func (r *Runner) modelFingerprint() uint64 { ... }
//
// Each named type must be a struct (own-package references may omit the
// package path). keycheck enumerates its fields recursively — nested
// module-local structs, behind pointers, slices, arrays, and maps,
// included — and requires every field to be referenced in the writer's
// body or in any same-package function the writer reaches
// (astq.CallGraph). A field that genuinely cannot affect results is
// exempted, in the same file, with its own justified annotation:
//
//	//mixplint:keyexempt CacheLevel.Name -- display label, never read by Time/Energy
//
// Exemptions are themselves audited, which is where the
// fingerprinted-but-dead report comes from: a keyexempt naming a field
// the writer does reference is stale and flagged, as is one naming a
// field that no longer exists. Malformed directives are reported by the
// driver under the "directive" name like every other mixplint comment.
package keycheck

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/astq"
)

var Analyzer = &analysis.Analyzer{
	Name: "keycheck",
	Doc:  "every field of a fingerprinted struct must be written by its annotated fingerprint/codec function or carry a justified exemption",
	Run:  run,
}

// audit is one resolved //mixplint:key obligation.
type audit struct {
	writer *types.Func
	decl   *ast.FuncDecl
	roots  []*types.Named
}

func run(pass *analysis.Pass) error {
	dirs, _ := analysis.ParseDirectives(pass.Fset, pass.Files)
	graph := astq.NewCallGraph(pass.TypesInfo, pass.Files)
	for _, f := range pass.Files {
		checkFile(pass, f, dirs, graph)
	}
	return nil
}

func checkFile(pass *analysis.Pass, f *ast.File, dirs []analysis.Directive, graph *astq.CallGraph) {
	fname := pass.Fset.Position(f.Pos()).Filename
	var audits []audit
	exempts := make(map[string]*analysis.Directive) // "Type.Field" -> directive
	for i := range dirs {
		d := &dirs[i]
		if pass.Fset.Position(d.Pos).Filename != fname {
			continue
		}
		switch d.Kind {
		case "key":
			if a, ok := resolveAudit(pass, f, d); ok {
				audits = append(audits, a)
			}
		case "keyexempt":
			exempts[d.Args[0]] = d
		}
	}
	if len(audits) == 0 {
		for _, d := range exempts {
			pass.Reportf(d.Pos, "mixplint:keyexempt without a mixplint:key audit in this file; nothing to exempt from")
		}
		return
	}

	// A field key ("Type.Field") is satisfied if any audit in the file
	// references it; exemption staleness is judged against the same set.
	needed := make(map[string]*types.Var)
	satisfied := make(map[string]bool)
	for _, a := range audits {
		referenced := referencedFields(pass, graph, a.writer)
		auditNeeded := make(map[string]*types.Var)
		for _, root := range a.roots {
			enumerateFields(pass, root, auditNeeded, make(map[*types.Named]bool))
		}
		for key, fv := range auditNeeded {
			needed[key] = fv
			if referenced[fv] {
				satisfied[key] = true
				continue
			}
			if _, exempted := exempts[key]; exempted {
				continue
			}
			pass.Reportf(a.decl.Name.Pos(),
				"field %s is not written by %s; fingerprinted structs must cover every field or carry a //mixplint:keyexempt",
				key, a.writer.Name())
		}
	}
	for key, d := range exempts {
		if _, exists := needed[key]; !exists {
			pass.Reportf(d.Pos, "mixplint:keyexempt names unknown field %s; the struct changed under the exemption", key)
			continue
		}
		if satisfied[key] {
			pass.Reportf(d.Pos, "mixplint:keyexempt %s is stale: the writer references the field (fingerprinted-but-dead exemption)", key)
		}
	}
}

// resolveAudit attaches a key directive to the function it documents and
// resolves its struct references. Unresolvable directives are reported
// and dropped.
func resolveAudit(pass *analysis.Pass, f *ast.File, d *analysis.Directive) (audit, bool) {
	decl := declFor(pass, f, d)
	if decl == nil {
		pass.Reportf(d.Pos, "mixplint:key directive is not attached to a function declaration")
		return audit{}, false
	}
	fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
	if !ok {
		return audit{}, false
	}
	a := audit{writer: fn, decl: decl}
	for _, ref := range d.Args {
		root, err := resolveStruct(pass, ref)
		if err != nil {
			pass.Reportf(d.Pos, "mixplint:key: %v", err)
			continue
		}
		a.roots = append(a.roots, root)
	}
	return a, len(a.roots) > 0
}

// declFor finds the function declaration whose doc comment holds the
// directive (or that starts on the line right below it).
func declFor(pass *analysis.Pass, f *ast.File, d *analysis.Directive) *ast.FuncDecl {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Doc != nil && d.Pos >= fd.Doc.Pos() && d.Pos <= fd.Doc.End() {
			return fd
		}
		if pass.Fset.Position(fd.Pos()).Line == d.Line+1 {
			return fd
		}
	}
	return nil
}

// resolveStruct resolves "Type" (own package) or "import/path.Type" to
// a named struct type visible from the analyzed package.
func resolveStruct(pass *analysis.Pass, ref string) (*types.Named, error) {
	pkgPath, name := "", ref
	if i := strings.LastIndex(ref, "."); i >= 0 {
		pkgPath, name = ref[:i], ref[i+1:]
	}
	scope := pass.Pkg.Scope()
	if pkgPath != "" && pkgPath != pass.Pkg.Path() {
		scope = nil
		for _, imp := range pass.Pkg.Imports() {
			if imp.Path() == pkgPath {
				scope = imp.Scope()
				break
			}
		}
		if scope == nil {
			return nil, fmt.Errorf("package %q is not imported by this package", pkgPath)
		}
	}
	obj := scope.Lookup(name)
	if obj == nil {
		return nil, fmt.Errorf("unknown type %s", ref)
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil, fmt.Errorf("%s is not a named type", ref)
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil, fmt.Errorf("%s is not a struct type", ref)
	}
	return named, nil
}

// enumerateFields records every field of the struct (keyed
// "Type.Field") and recurses into module-local struct-typed fields,
// through pointers, slices, arrays, and map values.
func enumerateFields(pass *analysis.Pass, named *types.Named, out map[string]*types.Var, seen map[*types.Named]bool) {
	if seen[named] {
		return
	}
	seen[named] = true
	st := named.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		fv := st.Field(i)
		out[named.Obj().Name()+"."+fv.Name()] = fv
		if nested, ok := structElem(fv.Type()); ok && inModule(pass, nested) {
			enumerateFields(pass, nested, out, seen)
		}
	}
}

// structElem unwraps pointers, slices, arrays, and map values down to a
// named struct type.
func structElem(t types.Type) (*types.Named, bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			if _, ok := u.Underlying().(*types.Struct); ok {
				return u, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

// inModule reports whether the named type belongs to this module (same
// first import-path segment as the analyzed package) — recursion stays
// inside the codebase the writer can actually cover.
func inModule(pass *analysis.Pass, named *types.Named) bool {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	seg := func(path string) string {
		if i := strings.IndexByte(path, '/'); i >= 0 {
			return path[:i]
		}
		return path
	}
	return pkg == pass.Pkg || seg(pkg.Path()) == seg(pass.Pkg.Path())
}

// referencedFields collects every struct field referenced in the writer
// or any same-package function it reaches: selector field accesses and
// composite-literal keys both count.
func referencedFields(pass *analysis.Pass, graph *astq.CallGraph, writer *types.Func) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for fn := range graph.Reachable(writer) {
		decl := graph.Decl(fn)
		if decl == nil || decl.Body == nil {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if fv, ok := sel.Obj().(*types.Var); ok {
						out[fv] = true
					}
				}
			case *ast.Ident:
				if fv, ok := pass.TypesInfo.Uses[n].(*types.Var); ok && fv.IsField() {
					out[fv] = true
				}
			}
			return true
		})
	}
	return out
}

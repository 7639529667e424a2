// Package puritycheck defines an analyzer that proves the caching
// contract every performance layer of this repo rests on: a benchmark's
// Run/RunIR body (and everything it reaches in its package, including
// the execution path in internal/compile) must be a pure function of
// the five-input purity key — bench, seed, semantics, machine
// fingerprint, and configuration. The run cache and the durable result
// store replay a stored result instead of executing, and the compiler
// replays recorded input streams; any other input silently makes
// replayed results diverge from fresh ones, and only a lucky
// equivalence test would notice.
//
// Roots are function declarations named Run or RunIR that take a
// parameter named seed — the port signature `Run(t *mp.Tape, seed
// int64)` and the compiler's `Run(prog Program, cfg []mp.Prec, sem
// runcache.Semantics, seed int64)`. From each root the analyzer walks
// the same-package static call graph (astq.CallGraph: any reference to
// a package-local function counts, so helpers passed as values are
// covered) and flags, anywhere in the reachable bodies:
//
//   - wall-clock reads: the astq.WallClock time functions;
//   - environment and host-state reads: any call into os, os/exec, or
//     syscall;
//   - non-seeded randomness: global math/rand draws (the
//     astq.GlobalRandAllowed constructors stay legal — that is exactly
//     how seeds enter);
//   - cross-run state: writes to package-level variables, and reads of
//     package-level variables that are mutated anywhere in the package
//     (immutable name/coefficient tables stay legal); reads of foreign
//     package-level variables are always flagged, since their mutators
//     are out of view;
//   - order leaks: iteration over a map, whose order would leak into
//     emitted values.
//
// Calls into other repo packages (mp.Tape, typedep) are trusted: the
// Tape is the purity boundary and carries the key's semantics and
// configuration. It is also where reads are recorded: every Tape call
// that reveals a site's precision marks the site (mp.Tape.ReadSet), and
// the run cache shares one execution among configurations that agree
// on every marked site. That sharing is exact only because this
// analyzer proves a port has no view of its configuration other than
// the Tape. Justified exceptions use the standard //mixplint:
// suppression model.
package puritycheck

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/astq"
)

var Analyzer = &analysis.Analyzer{
	Name: "puritycheck",
	Doc:  "Run/RunIR bodies must be pure functions of the purity key (bench, seed, semantics, machine fingerprint, config)",
	Run:  run,
}

// hostStatePkgs are packages whose package-level functions read process,
// host, or environment state.
var hostStatePkgs = map[string]bool{
	"os":      true,
	"os/exec": true,
	"syscall": true,
}

func run(pass *analysis.Pass) error {
	graph := astq.NewCallGraph(pass.TypesInfo, pass.Files)
	var roots []*types.Func
	for _, fn := range graph.Funcs() {
		if isRoot(fn, graph.Decl(fn)) {
			roots = append(roots, fn)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	mutated := mutatedPackageVars(pass)
	for fn := range graph.Reachable(roots...) {
		checkBody(pass, graph.Decl(fn).Body, mutated)
	}
	return nil
}

// isRoot reports whether fn is a result-producing entry point: a
// declaration named Run or RunIR with a parameter named seed.
func isRoot(fn *types.Func, decl *ast.FuncDecl) bool {
	if decl == nil || (fn.Name() != "Run" && fn.Name() != "RunIR") {
		return false
	}
	if decl.Type.Params == nil {
		return false
	}
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "seed" {
				return true
			}
		}
	}
	return false
}

// mutatedPackageVars scans every file (reachable or not) for mutations
// of this package's package-level variables: assignments, inc/dec, and
// address-taking outside the variable's own declaration.
func mutatedPackageVars(pass *analysis.Pass) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	mark := func(e ast.Expr) {
		if v := pkgLevelVar(pass, e); v != nil {
			out[v] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op.String() == "&" {
					mark(n.X)
				}
			}
			return true
		})
	}
	return out
}

// pkgLevelVar resolves an expression to a package-level variable of the
// analyzed package (possibly behind a selector base), or nil.
func pkgLevelVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			v, ok := pass.TypesInfo.Uses[x].(*types.Var)
			if ok && !v.IsField() && v.Pkg() == pass.Pkg && v.Parent() == pass.Pkg.Scope() {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkBody flags every purity violation in one reachable function body
// (nested function literals included). Write targets are collected
// first so a mutated variable is reported once per site as a write, not
// again as a read of itself.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, mutated map[*types.Var]bool) {
	writeTargets := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					writeTargets[id] = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := n.X.(*ast.Ident); ok {
				writeTargets[id] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := pkgLevelVar(pass, lhs); v != nil {
					pass.Reportf(lhs.Pos(), "write to package-level %s in a Run-reachable path; cross-run state breaks run purity", v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v := pkgLevelVar(pass, n.X); v != nil {
				pass.Reportf(n.Pos(), "write to package-level %s in a Run-reachable path; cross-run state breaks run purity", v.Name())
			}
		case *ast.RangeStmt:
			if astq.IsMap(pass.TypesInfo, n.X) {
				pass.Reportf(n.Pos(), "map iteration in a Run-reachable path; its nondeterministic order can leak into results — iterate a sorted slice instead")
			}
		case *ast.Ident:
			if !writeTargets[n] {
				checkVarRead(pass, n, mutated)
			}
		}
		return true
	})
}

// checkCall flags calls whose results depend on something outside the
// purity key.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	pkg, name, ok := astq.CalleePkgFunc(pass.TypesInfo, call)
	if !ok {
		return
	}
	switch {
	case pkg == "time" && astq.WallClock[name]:
		pass.Reportf(call.Pos(), "time.%s reads the wall clock in a Run-reachable path; results must derive only from the purity key", name)
	case hostStatePkgs[pkg]:
		pass.Reportf(call.Pos(), "%s.%s reads process or host state in a Run-reachable path; results must derive only from the purity key", pkg, name)
	case (pkg == "math/rand" || pkg == "math/rand/v2") && !astq.GlobalRandAllowed[name]:
		pass.Reportf(call.Pos(), "rand.%s draws from the global math/rand source in a Run-reachable path; seed all randomness from the run's seed", name)
	}
}

// checkVarRead flags reads of mutable package-level state: own-package
// variables with a recorded mutation site, and any foreign package-level
// variable (its mutators are outside this pass's view).
func checkVarRead(pass *analysis.Pass, id *ast.Ident, mutated map[*types.Var]bool) {
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return
	}
	if v.Pkg() == pass.Pkg {
		if v.Parent() == pass.Pkg.Scope() && mutated[v] {
			pass.Reportf(id.Pos(), "read of mutable package-level %s in a Run-reachable path; results must derive only from the purity key", v.Name())
		}
		return
	}
	if v.Parent() == v.Pkg().Scope() {
		pass.Reportf(id.Pos(), "read of foreign package-level %s.%s in a Run-reachable path; results must derive only from the purity key", v.Pkg().Path(), v.Name())
	}
}

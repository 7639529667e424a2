// Package fsyncpath defines an analyzer encoding the durability
// discipline the result store established in PR 7 and the checkpoint
// journal and campaign archives follow: a file that must survive a
// crash is written to a temporary name, fsync'd, renamed into place,
// and then the parent directory is fsync'd so the rename itself is
// durable. Skipping any step silently narrows the crash-safety window
// — the file's data, or its very directory entry, can vanish with the
// power — and no test catches it without fault injection at the
// filesystem layer.
//
// The analyzer checks three function-local rules in the durability
// packages (internal/store, the harness journal, the engine archives):
//
//   - R1 (rename barrier): every os.Rename call must be followed,
//     later in the same function, by a directory fsync — a call to
//     SyncDir or SyncParentDir (the internal/store helpers).
//   - R2 (create barrier): every file-creating open (os.Create, or
//     os.OpenFile whose flags include os.O_CREATE) must likewise be
//     followed by a directory fsync in the same function.
//   - R3 (publish barrier): an os.Rename whose source path was built
//     with a ".tmp" suffix — the atomic-publish idiom — must be
//     preceded in the same function by a file fsync (a call to a
//     function or method named Sync), so the renamed file's
//     contents are on disk before its name is.
//
// The rules are deliberately lexical and per-function: the repo's
// durability code keeps each create/sync/rename/dir-sync sequence in
// one function precisely so it can be audited locally. Code with a
// split protocol (create in one function, sync in another) carries a
// //mixplint:ignore fsyncpath directive with the justification naming
// where the missing half lives.
package fsyncpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/astq"
)

var Analyzer = &analysis.Analyzer{
	Name: "fsyncpath",
	Doc:  "file creates and renames on durability-critical paths must be followed by file and parent-directory fsyncs",
	Run:  run,
}

// dirSyncNames are the directory-fsync entry points: the exported
// internal/store helpers and their conventional local spellings.
var dirSyncNames = map[string]bool{
	"SyncDir":       true,
	"SyncParentDir": true,
	"syncDir":       true,
	"syncParentDir": true,
}

// fileSyncNames are file-fsync entry points: (*os.File).Sync and any
// function or method of that name that wraps it.
var fileSyncNames = map[string]bool{
	"Sync": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, fn := range astq.EnclosingFuncs(f) {
			if fn.Body != nil {
				checkFunc(pass, fn.Body)
			}
		}
	}
	return nil
}

// checkFunc applies R1–R3 to one function body.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var (
		fileSyncs []token.Pos // positions of file-fsync calls
		dirSyncs  []token.Pos // positions of directory-fsync calls
		renames   []*ast.CallExpr
		creates   []*ast.CallExpr
	)
	tmpLocals := tmpSuffixedLocals(pass.TypesInfo, body)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkg, name, ok := astq.CalleePkgFunc(pass.TypesInfo, call); ok && pkg == "os" {
			switch {
			case name == "Rename":
				renames = append(renames, call)
			case name == "Create", name == "OpenFile" && hasCreateFlag(call):
				creates = append(creates, call)
			}
		}
		if name, ok := astq.CalleeName(call); ok {
			if dirSyncNames[name] {
				dirSyncs = append(dirSyncs, call.Pos())
			}
			if fileSyncNames[name] {
				fileSyncs = append(fileSyncs, call.Pos())
			}
		}
		return true
	})

	for _, call := range renames {
		if !anyAfter(dirSyncs, call.Pos()) {
			pass.Reportf(call.Pos(), "os.Rename is not followed by a directory fsync (SyncDir/SyncParentDir) in this function; a crash can undo the rename")
		}
		if isTmpRename(pass.TypesInfo, call, tmpLocals) && !anyBefore(fileSyncs, call.Pos()) {
			pass.Reportf(call.Pos(), "os.Rename publishes a .tmp file without a preceding file fsync; the renamed file can be empty after a crash")
		}
	}
	for _, call := range creates {
		if !anyAfter(dirSyncs, call.Pos()) {
			pass.Reportf(call.Pos(), "file create is not followed by a directory fsync (SyncDir/SyncParentDir) in this function; the new file's directory entry is not durable")
		}
	}
}

// hasCreateFlag reports whether an os.OpenFile call's flag argument
// mentions os.O_CREATE.
func hasCreateFlag(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	found := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "O_CREATE" {
			found = true
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == "O_CREATE" {
			found = true
		}
		return !found
	})
	return found
}

// tmpSuffixedLocals collects the objects of local variables assigned
// from an expression containing a ".tmp"-suffixed string literal — the
// temporary names of the atomic-publish idiom.
func tmpSuffixedLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !containsTmpLit(rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					out[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isTmpRename reports whether the rename's source argument is a ".tmp"
// literal expression or a local holding one.
func isTmpRename(info *types.Info, call *ast.CallExpr, tmpLocals map[types.Object]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	src := call.Args[0]
	if containsTmpLit(src) {
		return true
	}
	if id, ok := src.(*ast.Ident); ok {
		return tmpLocals[info.Uses[id]]
	}
	return false
}

// containsTmpLit reports whether the expression contains a string
// literal ending in ".tmp".
func containsTmpLit(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.HasSuffix(strings.Trim(lit.Value, "`\""), ".tmp") {
			found = true
		}
		return !found
	})
	return found
}

func anyAfter(positions []token.Pos, p token.Pos) bool {
	for _, q := range positions {
		if q > p {
			return true
		}
	}
	return false
}

func anyBefore(positions []token.Pos, p token.Pos) bool {
	for _, q := range positions {
		if q < p {
			return true
		}
	}
	return false
}

package typedepcheck

// Abstract semantics for the mp.Tape and mp.Array methods the Run
// bodies use. These are where the P2/P3 evidence and the per-site kind
// and source-list checks come from.

import (
	"go/ast"
	"go/token"

	"repro/internal/typedep"
)

// walkTapeCall models one t.<Method>(...) call.
func (ra *runAnalyzer) walkTapeCall(call *ast.CallExpr, sel *ast.SelectorExpr) eres {
	ra.walkExpr(sel.X)
	switch sel.Sel.Name {
	case "NewArray":
		if len(call.Args) < 2 {
			return newERes()
		}
		ids, dynamic := ra.resolveVIDs(call.Args[0])
		ra.walkExpr(call.Args[1])
		ra.use(ids)
		ra.checkKind(call.Args[0].Pos(), ids, dynamic, typedep.ArrayVar, "NewArray")
		out := newERes()
		out.arrays.addSet(ids)
		out.dynamic = dynamic
		return out
	case "Assign":
		return ra.walkAssignCall(call)
	case "Value":
		if len(call.Args) < 2 {
			return newERes()
		}
		ids, _ := ra.resolveVIDs(call.Args[0])
		ra.use(ids)
		rx := ra.walkExpr(call.Args[1])
		out := newERes()
		out.taints.addSet(ids)
		out.taints.addSet(rx.taints)
		out.taints.addSet(rx.arrays)
		return out
	case "Prec", "SetPrec":
		if len(call.Args) >= 1 {
			ids, _ := ra.resolveVIDs(call.Args[0])
			ra.use(ids)
		}
		for _, a := range call.Args[1:] {
			ra.walkExpr(a)
		}
		return newERes()
	default:
		// SetScale, AddFlops, AddCasts, AddBytes, Cost, Profile, ...:
		// cost accounting, no dependence semantics.
		for _, a := range call.Args {
			ra.walkExpr(a)
		}
		return newERes()
	}
}

// walkAssignCall models t.Assign(dst, x, flops, srcs...): the one tape
// operation that both moves a tracked value and declares, in its source
// list, what the port believes that value depends on.
func (ra *runAnalyzer) walkAssignCall(call *ast.CallExpr) eres {
	if len(call.Args) < 3 {
		return newERes()
	}
	dst, dstDyn := ra.resolveVIDs(call.Args[0])
	ra.use(dst)
	ra.checkKind(call.Args[0].Pos(), dst, dstDyn, typedep.Scalar, "Assign destination")
	rx := ra.walkExpr(call.Args[1])
	flow := intset{}
	flow.addSet(rx.taints)
	flow.addSet(rx.arrays)
	ra.walkExpr(call.Args[2])

	srcs := intset{}
	srcsDyn := false
	for _, a := range call.Args[3:] {
		ids, dynamic := ra.resolveVIDs(a)
		ra.use(ids)
		srcs.addSet(ids)
		srcsDyn = srcsDyn || dynamic
	}
	if ra.record && !srcsDyn && !dstDyn && !rx.dynamic {
		for id := range srcs {
			if dst[id] {
				ra.reportf(call.Pos(), "Assign source %s is the destination itself", ra.varName(id))
				continue
			}
			if !flow[id] && !ra.foreign(id) {
				ra.reportf(call.Pos(), "Assign lists source %s but the assigned expression does not read it", ra.varName(id))
			}
		}
	}
	ra.addEvent(call.Pos(), union(flow, dst))
	out := newERes()
	out.taints.addSet(dst)
	out.taints.addSet(flow)
	return out
}

// walkArrayCall models one a.<Method>(...) call.
func (ra *runAnalyzer) walkArrayCall(call *ast.CallExpr, sel *ast.SelectorExpr) eres {
	recv := ra.walkExpr(sel.X)
	ra.use(recv.arrays)
	switch sel.Sel.Name {
	case "Get":
		for _, a := range call.Args {
			ra.walkExpr(a)
		}
		out := newERes()
		out.taints.addSet(recv.arrays)
		return out
	case "GetN", "Snapshot", "SnapshotInto", "Len", "Prec":
		for _, a := range call.Args {
			ra.walkExpr(a)
		}
		return newERes()
	case "Var":
		out := newERes()
		out.vids.addSet(recv.arrays)
		out.dynamic = recv.dynamic
		return out
	case "Set", "SetN":
		flow := intset{}
		for _, a := range call.Args {
			r := ra.walkExpr(a)
			flow.addSet(r.taints)
			flow.addSet(r.arrays)
		}
		ra.addEvent(call.Pos(), union(flow, recv.arrays))
		return newERes()
	case "Fill":
		if len(call.Args) != 1 {
			return newERes()
		}
		rx := ra.walkExpr(call.Args[0])
		ra.addEvent(call.Pos(), union(rx.taints, union(rx.arrays, recv.arrays)))
		// P3: the fill value is the untouched tracked value of exactly
		// one variable, named directly.
		if id, ok := ra.singleScalarIdent(call.Args[0]); ok && ra.record {
			ra.facts.fills = append(ra.facts.fills, fillEvent{
				scalar: id,
				arrays: recv.arrays,
				pos:    call.Pos(),
			})
		}
		return newERes()
	case "SetEach":
		flow := intset{}
		if len(call.Args) == 1 {
			r := ra.walkExpr(call.Args[0])
			if r.lit != nil {
				cr := ra.closureResult(r.lit)
				flow.addSet(cr.taints)
			}
			flow.addSet(r.taints)
		}
		ra.addEvent(call.Pos(), union(flow, recv.arrays))
		return newERes()
	default:
		for _, a := range call.Args {
			ra.walkExpr(a)
		}
		return newERes()
	}
}

// closureResult walks a function literal's body and unions the taints
// of its return expressions.
func (ra *runAnalyzer) closureResult(lit *ast.FuncLit) eres {
	ra.walkBody(lit.Body)
	out := newERes()
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				rr := ra.walkExpr(r)
				out.taints.addSet(rr.taints)
				out.taints.addSet(rr.arrays)
			}
		}
		return true
	})
	return out
}

// singleScalarIdent reports whether e is a bare local whose tracked
// value is exactly one declared scalar, untouched by arrays.
func (ra *runAnalyzer) singleScalarIdent(e ast.Expr) (int, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := ra.pass.TypesInfo.Uses[id]
	b, ok := ra.env[obj]
	if !ok || len(b.taints) != 1 || len(b.arrays) != 0 {
		return 0, false
	}
	t := b.taints.sorted()[0]
	if !ra.inRange(t) || typedep.Kind(ra.p.graph.vars[t].kind) != typedep.Scalar {
		return 0, false
	}
	return t, true
}

func (ra *runAnalyzer) inRange(id int) bool {
	return id >= 0 && id < len(ra.p.graph.vars)
}

// foreign reports ids outside the declared graph (hidden constant pools
// like hotspot's literal array use id == NumVars).
func (ra *runAnalyzer) foreign(id int) bool {
	return !ra.inRange(id)
}

func (ra *runAnalyzer) varName(id int) string {
	if !ra.inRange(id) {
		return "hidden"
	}
	v := ra.p.graph.vars[id]
	return v.unit + "::" + v.name
}

// checkKind verifies every statically-resolved id at a site has the
// kind the mp operation requires. Hidden (out-of-range) ids are exempt.
func (ra *runAnalyzer) checkKind(pos token.Pos, ids intset, dynamic bool, want typedep.Kind, site string) {
	if !ra.record || dynamic {
		return
	}
	for id := range ids {
		if !ra.inRange(id) {
			continue
		}
		if got := typedep.Kind(ra.p.graph.vars[id].kind); got != want {
			ra.reportf(pos, "%s uses %s declared as %s, want %s",
				site, ra.varName(id), kindName(int64(got)), kindName(int64(want)))
		}
	}
}

func union(sets ...intset) intset {
	out := intset{}
	for _, s := range sets {
		out.addSet(s)
	}
	return out
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpanPair enforces the two ownership rules of the observability layer:
//
//   - Accountant.Begin/End must pair on every control path. An
//     unbalanced Begin leaves a phase group open on the live span stack,
//     silently mis-attributing every later Charge; the bug only shows up
//     as a subtly wrong span tree long after the early return that
//     caused it. (StartSpans/FinishSpans are exempt: an abandoned
//     collection is dropped wholesale and harmless.)
//   - Tracer counters (Tracer/Counters fields, per-batch trInts/trRecs/
//     trDrops/trWords/trMaxWords) are written only by Tracer's own
//     methods or functions annotated //deltacolor:coordinator — exactly
//     one writer per counter is what keeps the per-batch accounting exact
//     without atomics.
var SpanPair = &Analyzer{
	Name: "spanpair",
	Doc: "Accountant.Begin/End must pair on every path; tracer counters " +
		"are written only from Tracer methods or //deltacolor:coordinator " +
		"functions",
	Run: runSpanPair,
}

// batchCounterFields are the per-batch trace and fault-injection counters
// (owner-written, drained by the coordinator between phases/rounds).
var batchCounterFields = map[string]bool{
	"trInts": true, "trRecs": true, "trDrops": true, "trWords": true, "trMaxWords": true,
	"ftDrops": true, "ftDups": true, "ftDelays": true,
	"ftCrashIn": true, "ftOffline": true, "ftPanics": true,
}

// tracerStateFields are Tracer's mutable run-state fields. Configuration
// and storage set up at construction (level, epoch, ring) are not
// counters; a constructor may write them before the tracer is shared.
var tracerStateFields = map[string]bool{"c": true, "head": true, "size": true, "run": true, "last": true}

func runSpanPair(pass *Pass) {
	dirs := funcDirectives(pass.Files)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpanBalance(pass, fd.Body)
			checkCounterWrites(pass, fd, dirs[fd])
		}
	}
}

// ---------------------------------------------------------------------------
// Begin/End balance.

// spanState tracks the open Begin calls (positions + names) and the
// number of deferred Ends along one control path.
type spanState struct {
	open     []openSpan
	deferred int
}

type openSpan struct {
	pos  token.Pos
	name string
}

func (st *spanState) clone() *spanState {
	return &spanState{open: append([]openSpan(nil), st.open...), deferred: st.deferred}
}

// unclosed is how many opens a return at this point would leak.
func (st *spanState) unclosed() int {
	n := len(st.open) - st.deferred
	if n < 0 {
		return 0
	}
	return n
}

// checkSpanBalance walks the body once per function (literals are walked
// separately: a literal's spans are its own contract), flagging any path
// that leaves a Begin without End.
func checkSpanBalance(pass *Pass, body *ast.BlockStmt) {
	st := &spanState{}
	terminated := walkSpanStmts(pass, body.List, st)
	if !terminated && st.unclosed() > 0 {
		for _, o := range st.open[st.deferred:] {
			pass.Report(o.pos, "Accountant.Begin(%q) is not closed on every path: falling off the function leaves the span open", o.name)
		}
	}
	// Literals get their own independent balance check.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkSpanBalance(pass, lit.Body)
			return false
		}
		return true
	})
}

// walkSpanStmts interprets a statement list against st, reporting leaks
// at every return. It reports whether the list always terminates
// (returns or panics) before falling through.
func walkSpanStmts(pass *Pass, stmts []ast.Stmt, st *spanState) bool {
	for _, s := range stmts {
		if walkSpanStmt(pass, s, st) {
			return true
		}
	}
	return false
}

func walkSpanStmt(pass *Pass, s ast.Stmt, st *spanState) (terminated bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch accountantCall(pass, call) {
		case "Begin":
			st.open = append(st.open, openSpan{pos: call.Pos(), name: beginName(call)})
		case "End":
			if len(st.open) > 0 {
				st.open = st.open[:len(st.open)-1]
			} else {
				pass.Report(call.Pos(), "Accountant.End without a matching Begin on this path")
			}
		}
		return isPanicCall(pass, call)
	case *ast.DeferStmt:
		if accountantCall(pass, s.Call) == "End" {
			st.deferred++
		}
		return false
	case *ast.ReturnStmt:
		if n := st.unclosed(); n > 0 {
			o := st.open[len(st.open)-1]
			pass.Report(s.Pos(), "return leaves Accountant.Begin(%q) open (opened at line %d): add End before returning or defer it", o.name, pass.Fset.Position(o.pos).Line)
		}
		return true
	case *ast.BlockStmt:
		return walkSpanStmts(pass, s.List, st)
	case *ast.LabeledStmt:
		return walkSpanStmt(pass, s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			walkSpanStmt(pass, s.Init, st)
		}
		thenSt := st.clone()
		thenTerm := walkSpanStmts(pass, s.Body.List, thenSt)
		elseTerm := false
		var elseSt *spanState
		if s.Else != nil {
			elseSt = st.clone()
			elseTerm = walkSpanStmt(pass, s.Else, elseSt)
		}
		// The fall-through state is the surviving branch; when both
		// survive prefer the one with more opens so a leak on either
		// branch is still caught downstream.
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			if elseSt != nil {
				*st = *elseSt
			}
		case elseTerm:
			*st = *thenSt
		default:
			if elseSt != nil && elseSt.unclosed() > thenSt.unclosed() {
				*st = *elseSt
			} else {
				*st = *thenSt
			}
		}
		return false
	case *ast.ForStmt:
		walkSpanStmts(pass, s.Body.List, st.clone())
		return false
	case *ast.RangeStmt:
		walkSpanStmts(pass, s.Body.List, st.clone())
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			clauses = sw.Body.List
		case *ast.SelectStmt:
			clauses = sw.Body.List
		}
		for _, c := range clauses {
			switch cc := c.(type) {
			case *ast.CaseClause:
				walkSpanStmts(pass, cc.Body, st.clone())
			case *ast.CommClause:
				walkSpanStmts(pass, cc.Body, st.clone())
			}
		}
		return false
	}
	return false
}

// accountantCall returns "Begin"/"End" when call is that method on
// local.Accountant, else "".
func accountantCall(pass *Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Begin" && sel.Sel.Name != "End") {
		return ""
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || !namedRuntimeType(s.Recv(), "Accountant") {
		return ""
	}
	return sel.Sel.Name
}

func beginName(call *ast.CallExpr) string {
	if len(call.Args) > 0 {
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			return litString(lit)
		}
	}
	return "?"
}

func litString(lit *ast.BasicLit) string {
	s := lit.Value
	if len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	return s
}

func isPanicCall(pass *Pass, call *ast.CallExpr) bool {
	return isBuiltin(pass.Info, call, "panic")
}

// ---------------------------------------------------------------------------
// Tracer counter ownership.

func checkCounterWrites(pass *Pass, fd *ast.FuncDecl, d Directives) {
	if d.Coordinator || isTracerMethod(pass, fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportCounterWrite(pass, lhs)
			}
		case *ast.IncDecStmt:
			reportCounterWrite(pass, n.X)
		}
		return true
	})
}

func isTracerMethod(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	if tv, ok := pass.Info.Types[fd.Recv.List[0].Type]; ok {
		return namedRuntimeType(tv.Type, "Tracer")
	}
	return false
}

// reportCounterWrite flags lhs when it resolves to a tracer-owned
// counter: a field of Tracer or Counters, or a batch tr* counter.
func reportCounterWrite(pass *Pass, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	f := s.Obj()
	if f.Pkg() == nil || !isRuntimePkg(f.Pkg()) {
		return
	}
	switch {
	case namedRuntimeType(s.Recv(), "Tracer") && tracerStateFields[f.Name()],
		namedRuntimeType(s.Recv(), "Counters") && tracerRooted(pass, sel.X):
		// A Counters value copied out via Tracer.Counters() is the
		// caller's to mutate; only writes through a live Tracer are
		// ownership violations.
		pass.Report(lhs.Pos(), "write to tracer counter %s outside Tracer methods or //deltacolor:coordinator code: the accounting is exact only with a single coordinator-owned writer", f.Name())
	case batchCounterFields[f.Name()]:
		pass.Report(lhs.Pos(), "write to batch trace counter %s outside //deltacolor:coordinator code: batch counters are owner-written and drained by the coordinator", f.Name())
	}
}

// tracerRooted reports whether the expression reaches its value through
// a field of a Tracer (e.g. tr.c in tr.c.StepNanos), as opposed to a
// detached Counters copy.
func tracerRooted(pass *Pass, x ast.Expr) bool {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := pass.Info.Selections[sel]
	return ok && s.Kind() == types.FieldVal && namedRuntimeType(s.Recv(), "Tracer")
}

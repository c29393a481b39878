package analysis

import (
	"go/ast"
	"go/types"
)

// Protodeterminism enforces that protocol code — anything that executes
// inside a node program — is a pure deterministic function of its
// messages, its ID, its input and Ctx.Rand. A protocol that consults the
// wall clock, the process environment, the package-global math/rand
// state, or map iteration order computes different colorings on
// different runs, which the golden tests only catch after the fact.
//
// Protocol scope is any function or function literal that takes a
// *local.Ctx parameter or receiver (the shape of every Stepped Init/Step
// and every helper they call with the ctx), plus
// functions annotated //deltacolor:protocol, plus literals nested inside
// either.
var Protodeterminism = &Analyzer{
	Name: "protodeterminism",
	Doc: "protocol code must be deterministic: no time.Now/Since/Sleep, " +
		"no package-global math/rand (use ctx.Rand()), no os.Getenv, no " +
		"goroutines, and no range over a map whose iteration order can " +
		"escape into sends, colors or other state",
	Run: runProtodeterminism,
}

// nondetCalls maps import path -> function names whose results depend on
// ambient process state rather than protocol inputs.
var nondetCalls = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock time",
		"Since": "wall-clock time",
		"Until": "wall-clock time",
		"Sleep": "wall-clock scheduling",
	},
	"os": {
		"Getenv":    "process environment",
		"LookupEnv": "process environment",
		"Environ":   "process environment",
	},
}

// randConstructors are the math/rand package-level functions that build
// generators from an explicit seed instead of drawing from the shared
// global state; they are the one deterministic use of the package.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func runProtodeterminism(pass *Pass) {
	dirs := funcDirectives(pass.Files)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inScope := dirs[fd].Protocol
			if !inScope {
				if sig, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					inScope = hasCtxParam(sig.Type().(*types.Signature))
				}
			}
			if inScope {
				checkProtocolBody(pass, fd.Body)
				continue
			}
			// Outside protocol scope, still scan for protocol-shaped
			// literals (closures handed to Run/RunStepped inline).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				if sig, ok := pass.Info.Types[lit].Type.(*types.Signature); ok && hasCtxParam(sig) {
					checkProtocolBody(pass, lit.Body)
					return false // checked as a whole, including nested literals
				}
				return true
			})
		}
	}
}

// checkProtocolBody reports every determinism violation inside one
// protocol function body (nested literals included: code that runs when a
// protocol calls it is protocol code).
func checkProtocolBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Report(n.Pos(), "goroutine spawned in protocol code: node programs are stepped by the round scheduler and must not introduce their own concurrency")
		case *ast.CallExpr:
			checkNondetCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n)
		}
		return true
	})
}

func checkNondetCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return
	}
	pkg := funcPkgPath(fn)
	if names, ok := nondetCalls[pkg]; ok {
		if what, ok := names[fn.Name()]; ok {
			pass.Report(call.Pos(), "%s.%s in protocol code: %s is nondeterministic across runs; protocols may depend only on messages, IDs, inputs and ctx.Rand()", pkg, fn.Name(), what)
		}
		return
	}
	if pkg == "math/rand" || pkg == "math/rand/v2" {
		// Methods on *rand.Rand are fine (the protocol got the generator
		// from ctx.Rand()); package-level draws hit the shared global
		// state, whose sequence depends on every other consumer.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return
		}
		if !randConstructors[fn.Name()] {
			pass.Report(call.Pos(), "package-global %s.%s in protocol code: the shared generator is nondeterministic across runs and nodes; use ctx.Rand()", pkg, fn.Name())
		}
	}
}

// checkMapRange flags a range over a map unless its body is provably
// order-insensitive: every iteration only writes or deletes map entries
// (commutative across orderings), possibly under order-insensitive ifs.
// Anything else — appends, sends, arithmetic folds that could overflow or
// lose associativity, function calls — lets the iteration order escape.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if orderInsensitiveStmts(pass, rng.Body.List) {
		return
	}
	pass.Report(rng.Pos(), "range over map in protocol code with an order-sensitive body: iteration order is randomized per run and escapes into protocol state; iterate sorted keys instead (slices.Sorted(maps.Keys(m)))")
}

func orderInsensitiveStmts(pass *Pass, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !orderInsensitiveStmt(pass, s) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *Pass, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		// Allowed only when every target is a map entry (or blank): map
		// writes from distinct keys commute. Writes to anything else
		// (slices, scalars, fields) depend on which iteration runs last.
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
			if !ok {
				return false
			}
			tv, ok := pass.Info.Types[idx.X]
			if !ok {
				return false
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return false
			}
		}
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && isBuiltin(pass.Info, call, "delete")
	case *ast.IfStmt:
		if s.Init != nil || !orderInsensitiveStmt(pass, s.Body) {
			return false
		}
		return s.Else == nil || orderInsensitiveStmt(pass, s.Else)
	case *ast.BlockStmt:
		return orderInsensitiveStmts(pass, s.List)
	case *ast.BranchStmt:
		return true // continue/break
	case *ast.EmptyStmt:
		return true
	}
	return false
}

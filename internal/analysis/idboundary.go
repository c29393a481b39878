package analysis

import (
	"go/ast"
	"go/types"
)

// IDBoundary enforces the external/internal node-ID separation the PR 5
// cache-locality relabeling introduced: every engine table (port tables,
// lanes, presence maps, halt segments, context array) is laid out in
// internal (locality) order and must be indexed by internal indices only,
// while every observable surface (Ctx.id, DeadSend, outputs) carries
// external IDs only. The extID/intID translation arrays and
// Network.toExt are the single blessed crossing points.
//
// The analyzer runs a light forward taint pass per function: expressions
// provably holding an external ID (c.id, toExt(...), extID[i],
// DeadSend.From/To) are Ext; expressions provably holding an internal
// index (intID[v], portsFlat values, members of batch live/senders
// lists) are Int. It flags only provable mismatches — an untainted index
// is assumed correct.
var IDBoundary = &Analyzer{
	Name: "idboundary",
	Doc: "engine-internal tables must be indexed by internal node " +
		"indices and external surfaces (DeadSend, Ctx.id) fed external " +
		"IDs; extID/intID/toExt are the only translation points",
	Run: runIDBoundary,
}

// internalTables are the runtime struct fields laid out in internal
// (locality) order. Indexing one with an external ID reads the wrong
// node's state whenever relabeling is active.
var internalTables = map[string]bool{
	"off": true, "portsFlat": true, "slotFlat": true,
	"inRec": true, "outRec": true, "inInt": true, "outInt": true,
	"inHas": true, "outHas": true, "recvRec": true, "recvInt": true,
	"haltSeg": true, "ctxs": true, "extID": true,
}

// intValueTables are fields whose *element values* are internal indices.
var intValueTables = map[string]bool{
	"portsFlat": true, "live": true, "senders": true,
}

type taint int

const (
	taintNone taint = iota
	taintExt
	taintInt
)

func (t taint) String() string {
	switch t {
	case taintExt:
		return "external ID"
	case taintInt:
		return "internal index"
	}
	return "untainted"
}

func runIDBoundary(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkIDBoundaryFunc(pass, fd.Body)
		}
	}
}

func checkIDBoundaryFunc(pass *Pass, body *ast.BlockStmt) {
	ib := &idbState{pass: pass, vars: map[types.Object]taint{}}
	// Pass 1: propagate taint through direct assignments and range
	// clauses, in source order (good enough for the engine's
	// straight-line kernels; loops re-binding taint converge because the
	// sources are structural, not flow-dependent).
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if t := ib.taintOf(n.Rhs[i]); t != taintNone {
							if obj := ib.objOf(id); obj != nil {
								ib.vars[obj] = t
							}
						}
					}
				}
			}
		case *ast.RangeStmt:
			ib.rangeTaint(n)
		}
		return true
	})
	// Pass 2: check every boundary crossing.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			ib.checkIndex(n)
		case *ast.CompositeLit:
			ib.checkDeadSendLit(n)
		case *ast.CallExpr:
			ib.checkTranslation(n)
		case *ast.AssignStmt:
			ib.checkIDWrite(n)
		}
		return true
	})
}

type idbState struct {
	pass *Pass
	vars map[types.Object]taint
}

func (ib *idbState) objOf(id *ast.Ident) types.Object {
	if obj := ib.pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return ib.pass.Info.Uses[id]
}

// runtimeField returns the field name when sel selects a field declared
// in the runtime package, else "".
func (ib *idbState) runtimeField(sel *ast.SelectorExpr) string {
	s, ok := ib.pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	f := s.Obj()
	if f.Pkg() == nil || !isRuntimePkg(f.Pkg()) {
		return ""
	}
	return f.Name()
}

// taintOf classifies an expression as holding an external ID, an
// internal index, or neither.
func (ib *idbState) taintOf(e ast.Expr) taint {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := ib.objOf(e); obj != nil {
			return ib.vars[obj]
		}
	case *ast.SelectorExpr:
		switch name := ib.runtimeField(e); name {
		case "id":
			if sel, ok := ib.pass.Info.Selections[e]; ok && namedRuntimeType(sel.Recv(), "Ctx") {
				return taintExt
			}
		case "iid":
			return taintInt
		case "From", "To":
			if sel, ok := ib.pass.Info.Selections[e]; ok && namedRuntimeType(sel.Recv(), "DeadSend") {
				return taintExt
			}
		}
	case *ast.IndexExpr:
		if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
			switch ib.runtimeField(sel) {
			case "extID":
				return taintExt
			case "intID":
				return taintInt
			}
			if intValueTables[ib.runtimeField(sel)] {
				return taintInt
			}
		}
	case *ast.CallExpr:
		if fn := calleeFunc(ib.pass.Info, e); fn != nil && fn.Name() == "toExt" && isRuntimePkg(fn.Pkg()) {
			return taintExt
		}
		// Conversions like int(x) / int32(x) preserve taint.
		if len(e.Args) == 1 {
			if tv, ok := ib.pass.Info.Types[e.Fun]; ok && tv.IsType() {
				return ib.taintOf(e.Args[0])
			}
		}
	case *ast.BinaryExpr:
		// offset arithmetic (i+1, base+p) keeps the identity of the
		// tainted side as long as the other side is untainted.
		lt, rt := ib.taintOf(e.X), ib.taintOf(e.Y)
		if lt == taintNone {
			return rt
		}
		if rt == taintNone || rt == lt {
			return lt
		}
	}
	return taintNone
}

// rangeTaint records the taint of range-clause variables: iterating an
// internal-order table binds internal indices to the key (and, for
// tables whose values are internal indices, to the value too); iterating
// the translation arrays binds one world to each side.
func (ib *idbState) rangeTaint(rng *ast.RangeStmt) {
	sel, ok := ast.Unparen(rng.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := ib.runtimeField(sel)
	if name == "" {
		return
	}
	set := func(e ast.Expr, t taint) {
		if e == nil || t == taintNone {
			return
		}
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := ib.objOf(id); obj != nil {
				ib.vars[obj] = t
			}
		}
	}
	switch {
	case name == "extID":
		set(rng.Key, taintInt)
		set(rng.Value, taintExt)
	case name == "intID":
		set(rng.Key, taintExt)
		set(rng.Value, taintInt)
	case internalTables[name]:
		set(rng.Key, taintInt)
		if intValueTables[name] {
			set(rng.Value, taintInt)
		}
	case intValueTables[name]:
		set(rng.Value, taintInt)
	}
}

func (ib *idbState) checkIndex(idx *ast.IndexExpr) {
	sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := ib.runtimeField(sel)
	if name == "" {
		return
	}
	t := ib.taintOf(idx.Index)
	if internalTables[name] && t == taintExt {
		ib.pass.Report(idx.Pos(), "internal table %s indexed by an external ID: engine tables are laid out in locality order; translate with intID first", name)
	}
	if name == "intID" && t == taintInt {
		ib.pass.Report(idx.Pos(), "intID indexed by an internal index: intID maps external IDs to internal indices, this double-translates")
	}
}

func (ib *idbState) checkDeadSendLit(lit *ast.CompositeLit) {
	tv, ok := ib.pass.Info.Types[lit]
	if !ok || !namedRuntimeType(tv.Type, "DeadSend") {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || (key.Name != "From" && key.Name != "To") {
			continue
		}
		if ib.taintOf(kv.Value) == taintInt {
			ib.pass.Report(kv.Pos(), "DeadSend.%s fed an internal index: dead-send records are an external surface; translate with toExt", key.Name)
		}
	}
}

// checkTranslation flags double translation: toExt of something already
// external.
func (ib *idbState) checkTranslation(call *ast.CallExpr) {
	fn := calleeFunc(ib.pass.Info, call)
	if fn == nil || fn.Name() != "toExt" || !isRuntimePkg(fn.Pkg()) || len(call.Args) != 1 {
		return
	}
	if ib.taintOf(call.Args[0]) == taintExt {
		ib.pass.Report(call.Pos(), "toExt applied to a value that is already an external ID (double translation)")
	}
}

// checkIDWrite flags writing an internal index into Ctx.id, the external
// identity every protocol observes.
func (ib *idbState) checkIDWrite(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || ib.runtimeField(sel) != "id" {
			continue
		}
		if s, ok := ib.pass.Info.Selections[sel]; !ok || !namedRuntimeType(s.Recv(), "Ctx") {
			continue
		}
		if ib.taintOf(as.Rhs[i]) == taintInt {
			ib.pass.Report(as.Pos(), "Ctx.id assigned an internal index: Ctx.id is the external identity protocols observe; assign toExt(i)")
		}
	}
}

// Package optikvalidate checks the OPTIK validation discipline: an
// optimistic section that snapshots a lock version (GetVersion /
// GetVersionWait) must re-validate before its reads are trusted. Two
// rules:
//
//  1. a version snapshot that is never validated — never fed to
//     TryLockVersion/LockVersion/Same or compared with ==/!= — and never
//     handed off (returned, stored, passed along for a caller to
//     validate, as the hand-over-hand traversals do) is a dead snapshot:
//     the optimistic read it opened is trusted unvalidated;
//
//  2. returning data read from protected state (an atomic .Load, a
//     LoadWord of an index's value word, or a local derived from either)
//     without an intervening validation and outside any critical
//     section. This is exactly the chain-hit bug
//     this repo once shipped: the hashmap's chain walk returned
//     cur.val.Load() on a key match without re-checking the bucket
//     version, so a racing migration could hand back a value from a
//     node that was already unlinked and recycled.
//
// A successful validation (TryLockVersion, LockVersion, a Same/==
// version compare) clears the taint: reads made before it are proven
// consistent, and reads made inside a critical section (between a
// validated lock acquisition and Unlock/Revert) are safe by mutual
// exclusion. Only functions that take version snapshots are examined —
// deliberately non-validating reads (mark-bit designs, monitoring
// Len()s) have no snapshot and are out of scope. Pointer-typed results
// are exempt: handing a node pointer plus its version to the caller for
// validation is the traversal idiom, not a bug. A result of a type
// parameter's type is checked like a basic one: in the generic tables
// that is the value word, a uint64 or a pointer the caller trusts as the
// value itself. *_test.go files are skipped (tests stage deliberate
// violations).
package optikvalidate

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/optik-go/optik/internal/analysis"
)

// Analyzer is the OPTIK validate-before-trust checker.
var Analyzer = &analysis.Analyzer{
	Name: "optikvalidate",
	Doc: "optimistic reads opened by a version snapshot must be " +
		"re-validated (or made under the validated lock) before their " +
		"results are returned",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		// Every function body — declarations and literals — is analyzed
		// independently; nested literals are skipped by the scan itself.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					analyzeFunc(pass, n.Body)
				}
			case *ast.FuncLit:
				analyzeFunc(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// snapshotCall matches R.GetVersion() / R.GetVersionWait().
func snapshotCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	_, name, ok := analysis.MethodCall(info, call)
	return ok && (name == "GetVersion" || name == "GetVersionWait")
}

// validationName matches the version-validating methods.
func validationName(name string) bool {
	return name == "TryLockVersion" || name == "LockVersion" || name == "Same"
}

// containsValidation reports whether the expression tree validates a
// version: a validation method call, or an ==/!= whose operand is a
// snapshot variable or a fresh GetVersion read.
func containsValidation(info *types.Info, e ast.Expr, snaps map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if _, name, ok := analysis.MethodCall(info, n); ok && validationName(name) {
				found = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				for _, op := range []ast.Expr{n.X, n.Y} {
					if snapshotCall(info, op) {
						found = true
					}
					if id, ok := op.(*ast.Ident); ok && snaps[info.Uses[id]] {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

func analyzeFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Pass 1: collect snapshot variables (gate for both rules).
	snaps := map[types.Object]bool{}
	snapPos := map[types.Object]token.Pos{}
	inspectOwn(body, func(n ast.Node) {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return
		}
		for i, r := range st.Rhs {
			if !snapshotCall(info, r) {
				continue
			}
			if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !snaps[obj] {
					snaps[obj] = true
					snapPos[obj] = id.Pos()
				}
			}
		}
	})
	if len(snaps) == 0 {
		return
	}

	checkDeadSnapshots(pass, body, snaps, snapPos)

	s := &vscan{pass: pass, info: info, snaps: snaps, tainted: map[types.Object]bool{}}
	s.scan(body.List, 0)
}

// inspectOwn walks the body without descending into nested function
// literals (they are analyzed as their own functions).
func inspectOwn(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// checkDeadSnapshots implements rule 1: every snapshot must either reach
// a validation or be handed off for someone else to validate.
func checkDeadSnapshots(pass *analysis.Pass, body *ast.BlockStmt, snaps map[types.Object]bool, snapPos map[types.Object]token.Pos) {
	info := pass.TypesInfo
	ok := map[types.Object]bool{}

	mark := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			if id, isId := n.(*ast.Ident); isId {
				if obj := info.Uses[id]; obj != nil && snaps[obj] {
					ok[obj] = true
				}
			}
			return true
		})
	}

	inspectOwn(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, name, isM := analysis.MethodCall(info, n); isM && validationName(name) {
				// Snapshot anywhere in a validation call (argument or
				// receiver chain) is the point of the snapshot.
				mark(n)
				return
			}
			// Hand-off: passed as an argument for the callee to validate.
			for _, a := range n.Args {
				mark(a)
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				mark(n.X)
				mark(n.Y)
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				mark(r) // caller validates (hand-over-hand traversal)
			}
		case *ast.AssignStmt:
			// Flowing into another variable, field, or slot hands the
			// snapshot off; its consumer is responsible for validating.
			for _, r := range n.Rhs {
				if !snapshotCall(info, r) {
					mark(r)
				}
			}
		case *ast.SendStmt:
			mark(n.Value)
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				mark(e)
			}
		}
	})

	for obj := range snaps {
		if !ok[obj] {
			pass.Reportf(snapPos[obj],
				"version snapshot %s is never validated: feed it to TryLockVersion/LockVersion/Same (or hand it off) before trusting the optimistic read it opened", obj.Name())
		}
	}
}

// vscan is the rule-2 linear walk: taint locals read from atomics outside
// critical sections, clear on validation, flag unvalidated returns.
type vscan struct {
	pass    *analysis.Pass
	info    *types.Info
	snaps   map[types.Object]bool
	tainted map[types.Object]bool
}

func (s *vscan) scan(stmts []ast.Stmt, depth int) int {
	for _, st := range stmts {
		depth = s.scanStmt(st, depth)
	}
	return depth
}

func (s *vscan) scanStmt(st ast.Stmt, depth int) int {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if _, name, isM := analysis.MethodCall(s.info, call); isM {
				switch name {
				case "Lock":
					return depth + 1
				case "Unlock", "Revert":
					if depth > 0 {
						return depth - 1
					}
					return 0
				}
			}
		}
		if containsValidation(s.info, st.X, s.snaps) {
			s.clearTaints()
		}
		return depth

	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			if containsValidation(s.info, r, s.snaps) {
				s.clearTaints()
			}
		}
		for i, l := range st.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := s.info.Defs[id]
			if obj == nil {
				obj = s.info.Uses[id]
			}
			if obj == nil || s.snaps[obj] {
				continue
			}
			var rhs ast.Expr
			if len(st.Rhs) == len(st.Lhs) {
				rhs = st.Rhs[i]
			} else if len(st.Rhs) == 1 {
				rhs = st.Rhs[0]
			}
			if rhs == nil {
				continue
			}
			if depth == 0 && (s.hasAtomicLoad(rhs) || s.refsTainted(rhs)) {
				s.tainted[obj] = true
			} else {
				delete(s.tainted, obj)
			}
		}
		return depth

	case *ast.ReturnStmt:
		if depth > 0 {
			return depth
		}
		for _, r := range st.Results {
			if !s.isBasicValue(r) {
				continue
			}
			if s.hasAtomicLoad(r) {
				s.pass.Reportf(r.Pos(),
					"atomic read returned without re-validating the version snapshot: a racing writer may have retired this state (validate with Same/TryLockVersion first)")
				continue
			}
			if s.refsTainted(r) {
				s.pass.Reportf(r.Pos(),
					"value read optimistically is returned without re-validating the version snapshot: validate with Same/TryLockVersion before trusting it")
			}
		}
		return depth

	case *ast.IfStmt:
		if st.Init != nil {
			depth = s.scanStmt(st.Init, depth)
		}
		try, lockv, neg := s.condLocks(st.Cond)
		if containsValidation(s.info, st.Cond, s.snaps) {
			s.clearTaints()
		}
		bodyDepth := depth
		afterDepth := depth
		switch {
		case lockv:
			// LockVersion acquires on both outcomes.
			bodyDepth, afterDepth = depth+1, depth+1
		case try && !neg:
			bodyDepth = depth + 1
		case try && neg:
			// if !TryLockVersion(v) { retry } — fallthrough holds the lock.
			afterDepth = depth + 1
		}
		s.scan(st.Body.List, bodyDepth)
		if st.Else != nil {
			s.scanStmt(st.Else, depth)
		}
		return afterDepth

	case *ast.BlockStmt:
		return s.scan(st.List, depth)
	case *ast.LabeledStmt:
		return s.scanStmt(st.Stmt, depth)

	case *ast.ForStmt:
		if st.Init != nil {
			depth = s.scanStmt(st.Init, depth)
		}
		if st.Post != nil {
			s.scanStmt(st.Post, depth)
		}
		s.scan(st.Body.List, depth)
		return depth
	case *ast.RangeStmt:
		s.scan(st.Body.List, depth)
		return depth

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var blocks *ast.BlockStmt
		switch st := st.(type) {
		case *ast.SwitchStmt:
			blocks = st.Body
		case *ast.TypeSwitchStmt:
			blocks = st.Body
		case *ast.SelectStmt:
			blocks = st.Body
		}
		for _, c := range blocks.List {
			switch c := c.(type) {
			case *ast.CaseClause:
				s.scan(c.Body, depth)
			case *ast.CommClause:
				s.scan(c.Body, depth)
			}
		}
		return depth

	default:
		return depth
	}
}

// condLocks classifies a condition's lock acquisition: try=TryLockVersion
// present, lockv=LockVersion present, neg=the acquiring call is negated.
func (s *vscan) condLocks(cond ast.Expr) (try, lockv, neg bool) {
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.NOT {
				if hasLockingCall(s.info, n.X) {
					neg = true
				}
			}
		case *ast.CallExpr:
			if _, name, ok := analysis.MethodCall(s.info, n); ok {
				switch name {
				case "TryLockVersion":
					try = true
				case "LockVersion":
					lockv = true
				}
			}
		}
		return true
	})
	return try, lockv, neg
}

func hasLockingCall(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, name, isM := analysis.MethodCall(info, call); isM && (name == "TryLockVersion" || name == "LockVersion") {
				found = true
			}
		}
		return !found
	})
	return found
}

func (s *vscan) clearTaints() {
	for k := range s.tainted {
		delete(s.tainted, k)
	}
}

// hasAtomicLoad reports whether the expression performs a .Load() on a
// typed atomic (sync/atomic value type), or loads a value word through a
// package-level LoadWord (core.LoadWord, matched by name like the rest).
func (s *vscan) hasAtomicLoad(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := analysis.MethodCall(s.info, call)
		if ok && name == "Load" && analysis.IsAtomicType(analysis.Deref(s.info.TypeOf(recv))) {
			found = true
		}
		if _, name, ok := analysis.PkgFuncCall(s.info, call); ok && name == "LoadWord" {
			found = true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "LoadWord" {
			found = true
		}
		return !found
	})
	return found
}

// refsTainted reports whether the expression references a tainted local.
func (s *vscan) refsTainted(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && s.tainted[s.info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// isBasicValue reports whether the expression's type is a value type
// (basic-kinded, or a type parameter: a generic table's value word).
// Pointer results are the traversal hand-off idiom and are validated by
// the caller.
func (s *vscan) isBasicValue(e ast.Expr) bool {
	t := s.info.TypeOf(e)
	if t == nil {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return true
	}
	_, ok := t.Underlying().(*types.Basic)
	return ok
}

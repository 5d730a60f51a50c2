// Package bufguard checks tiered buffer-pool hygiene (server/bufpool.go).
// A buffer checked out of the pools — getBytes, getCoalescer — must go
// back with the matching put on every path, or
// transfer ownership (stored into a struct like connState, returned,
// sent away). A dropped checkout is not a memory leak — the GC collects
// it — but it silently defeats the pooling that keeps the hot path at
// zero allocations per op, and when the checkout was charged to the
// server's buffersResident gauge the STATS `buffers_resident` proxy
// drifts upward forever.
//
// The repo idiom stores checkouts into connState fields and releases
// them in one place (releaseBuffers), which this analyzer treats as an
// ownership transfer; what it polices is the other shape — a local
// scratch checkout (`b := getBytes(n)`) that an early return forgets to
// put back. Matching is name-based (getX/putX pairs) so analysistest
// stubs work.
//
// Functions in *_test.go files and the pool implementation itself
// (server/bufpool.go's own functions) are exempt.
package bufguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/optik-go/optik/internal/analysis"
)

// Analyzer is the buffer-pool checkout-hygiene checker.
var Analyzer = &analysis.Analyzer{
	Name: "bufguard",
	Doc: "pooled connection buffers must be returned with the matching " +
		"put on every path or transfer ownership",
	Run: run,
}

// pairs maps each pool checkout function to its return function.
var pairs = map[string]string{
	"getBytes":     "putBytes",
	"getCoalescer": "putCoalescer",
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			// The pool's own get/put implementations handle raw
			// sync.Pool traffic; they are the mechanism, not a user.
			if _, isPool := pairs[fd.Name.Name]; isPool {
				continue
			}
			if isPutName(fd.Name.Name) {
				continue
			}
			analyzeFunc(pass, fd)
		}
	}
	return nil
}

func isPutName(name string) bool {
	for _, put := range pairs {
		if name == put {
			return true
		}
	}
	return false
}

// checkout is one tracked pool acquisition.
type checkout struct {
	obj     types.Object // the local variable holding the buffer
	put     string       // the matching put function's name
	acqStmt ast.Stmt
	acqPos  token.Pos
}

func analyzeFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	var outs []*checkout

	// Collect checkouts: `x := getX(...)` with x a plain local. Field
	// assignments (cs.in = getBytes(...)) transfer ownership to the
	// struct and are not collected; closures own their checkouts
	// separately (the fleet keeps to directly-visible control flow).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return true
		}
		id, ok := st.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return true
		}
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if put, ok := pairs[fn.Name]; ok {
			outs = append(outs, &checkout{obj: obj, put: put, acqStmt: st, acqPos: st.Pos()})
		}
		return true
	})
	if len(outs) == 0 {
		return
	}

	for _, co := range outs {
		if escapes(info, fd.Body, co) {
			continue
		}
		s := &scanner{pass: pass, info: info, co: co}
		s.deferred = hasDeferredPut(info, fd.Body, co)
		held := s.scan(fd.Body.List, false)
		if held && !s.deferred {
			pass.Reportf(co.acqPos,
				"pooled buffer checked out here never returns to its pool; the checkout defeats pooling and strands its buffers_resident charge")
		}
	}
}

// scanner walks one function linearly tracking whether co is checked out.
type scanner struct {
	pass     *analysis.Pass
	info     *types.Info
	co       *checkout
	deferred bool
}

// scan processes a statement list and returns whether the buffer can
// still be checked out afterwards (conservative: out unless every path
// returned it).
func (s *scanner) scan(stmts []ast.Stmt, held bool) bool {
	for _, st := range stmts {
		held = s.scanStmt(st, held)
	}
	return held
}

func (s *scanner) scanStmt(st ast.Stmt, held bool) bool {
	if st == s.co.acqStmt {
		return true
	}
	switch st := st.(type) {
	case *ast.ExprStmt:
		if s.isPut(st.X) {
			return false
		}
		return held
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			if s.isPut(r) {
				return false
			}
		}
		return held
	case *ast.ReturnStmt:
		if held && !s.deferred {
			s.pass.Reportf(st.Pos(),
				"pooled buffer may still be checked out at this return: put it back on every path or defer the put")
		}
		return held
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred puts were collected up front; goroutine bodies own
		// their own checkouts.
		return held
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.scanStmt(st.Init, held)
		}
		thenHeld := s.scan(st.Body.List, held)
		elseHeld := held
		if st.Else != nil {
			elseHeld = s.scanStmt(st.Else, held)
		}
		return thenHeld || elseHeld
	case *ast.BlockStmt:
		return s.scan(st.List, held)
	case *ast.LabeledStmt:
		return s.scanStmt(st.Stmt, held)
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.scanStmt(st.Init, held)
		}
		bodyHeld := s.scan(st.Body.List, held)
		return held || bodyHeld
	case *ast.RangeStmt:
		bodyHeld := s.scan(st.Body.List, held)
		return held || bodyHeld
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = s.scanStmt(st.Init, held)
		}
		return s.scanCases(st.Body, held)
	case *ast.TypeSwitchStmt:
		return s.scanCases(st.Body, held)
	case *ast.SelectStmt:
		after := held
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if s.scan(cc.Body, held) {
					after = true
				}
			}
		}
		return after
	default:
		return held
	}
}

// scanCases scans switch clause bodies; the buffer counts as checked out
// afterwards unless every clause (including a default) returned it.
func (s *scanner) scanCases(body *ast.BlockStmt, held bool) bool {
	after := false
	sawDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			sawDefault = true
		}
		if s.scan(cc.Body, held) {
			after = true
		}
	}
	if !sawDefault {
		after = after || held
	}
	return after
}

// isPut matches the checkout's matching put call with the tracked
// buffer as its argument.
func (s *scanner) isPut(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	return isPutOf(s.info, call, s.co)
}

func isPutOf(info *types.Info, call *ast.CallExpr, co *checkout) bool {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != co.put || len(call.Args) != 1 {
		return false
	}
	return usesObj(info, call.Args[0], co.obj)
}

// hasDeferredPut reports whether any defer in the body puts co back.
func hasDeferredPut(info *types.Info, body *ast.BlockStmt, co *checkout) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok && isPutOf(info, d.Call, co) {
			found = true
		}
		return !found
	})
	return found
}

// escapes reports whether the buffer's ownership leaves the function:
// returned, stored into a field/map/slice or pre-existing variable, sent
// on a channel, placed in a composite literal, or captured by a closure.
// Reassignment to the same variable (`b = append(b, ...)`, the scratch
// idiom) stays local ownership.
func escapes(info *types.Info, body *ast.BlockStmt, co *checkout) bool {
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if usesObj(info, r, co.obj) {
					esc = true
				}
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if !usesObj(info, r, co.obj) {
					continue
				}
				if i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && (info.Defs[id] != nil || id.Name == "_") {
						continue // fresh local alias (or drop): still local
					}
					if usesObj(info, n.Lhs[i], co.obj) {
						continue // b = append(b, ...): same owner
					}
				}
				esc = true
			}
		case *ast.SendStmt:
			if usesObj(info, n.Value, co.obj) {
				esc = true
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if usesObj(info, e, co.obj) {
					esc = true
				}
			}
		case *ast.FuncLit:
			if usesObj(info, n, co.obj) {
				esc = true
			}
			return false
		}
		return !esc
	})
	return esc
}

// usesObj reports whether the expression tree references obj.
func usesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	if n == nil {
		return false
	}
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
			used = true
		}
		return !used
	})
	return used
}

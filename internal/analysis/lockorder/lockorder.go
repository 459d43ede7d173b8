// Package lockorder enforces the kv store's shard-lock protocol. The
// store avoids deadlock by locking every shard a transaction touches in
// ascending index order (the classic total-order rule), and keeps commit
// latency bounded by never blocking on the outside world while shards are
// locked.
//
// The protocol is declared in source: the function that acquires the
// shard set is marked `//loadctl:locks`, the releasing function
// `//loadctl:unlocks`. The analyzer then checks:
//
//   - inside a locks-marked function, lock-acquiring loops must walk the
//     mask from the low bit up (bits.TrailingZeros + clear-lowest-set);
//     descending loops and bits.LeadingZeros walks are flagged;
//   - between a locks call and the matching unlocks call, no network,
//     file/syscall, time.Sleep, channel send, or select may run, and no
//     second locks call may nest;
//   - every path out of a function that acquired shard locks must release
//     them first (or have deferred the release).
//
// The held-state tracking is intraprocedural and branch-aware: a branch
// that releases and then returns (the commit-validation abort path) does
// not leak its state into the fall-through path.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/tpctl/loadctl/internal/analysis"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "shard locks must be acquired in ascending order and released before blocking operations",
	Run:  run,
}

// Directive names marking the acquire/release functions.
const (
	DirectiveLocks   = "locks"
	DirectiveUnlocks = "unlocks"
)

type lockRole int

const (
	roleNone lockRole = iota
	roleLocks
	roleUnlocks
)

func run(pass *analysis.Pass) error {
	roles := map[types.Object]lockRole{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			switch {
			case analysis.HasDirective(fd.Doc, DirectiveLocks):
				roles[obj] = roleLocks
			case analysis.HasDirective(fd.Doc, DirectiveUnlocks):
				roles[obj] = roleUnlocks
			}
		}
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if roles[obj] == roleLocks {
				checkAcquireOrder(pass, fd)
				continue // a locks function returns held by design
			}
			w := &walker{pass: pass, roles: roles}
			st := state{}
			w.block(fd.Body.List, &st)
			// Held at the fall-off-the-end point (no explicit return) with
			// no deferred release: flag at the closing brace.
			if st.held && !st.deferred && !terminates(fd.Body.List) {
				pass.Reportf(fd.Body.Rbrace, "function ends with shard locks held and no deferred release")
			}
		}
	}
	return nil
}

// checkAcquireOrder vets the body of a //loadctl:locks function: the
// loop(s) that take the per-shard mutexes must walk ascending.
func checkAcquireOrder(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if !containsLockCall(n.Body) {
				return true
			}
			if post, ok := n.Post.(*ast.IncDecStmt); ok && post.Tok == token.DEC {
				pass.Reportf(n.For, "shard locks acquired in a descending loop; lock order must be ascending to prevent deadlock")
			}
		case *ast.SelectorExpr:
			if isBitsCall(pass, n, "LeadingZeros") {
				pass.Reportf(n.Pos(), "shard mask walked from the high bit (bits.%s); walk ascending with bits.TrailingZeros", n.Sel.Name)
			}
		}
		return true
	})
}

// containsLockCall reports whether the block calls a Lock/RLock method.
func containsLockCall(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
				found = true
			}
		}
		return !found
	})
	return found
}

// isBitsCall reports whether sel names a math/bits function whose name
// starts with prefix.
func isBitsCall(pass *analysis.Pass, sel *ast.SelectorExpr, prefix string) bool {
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "math/bits" {
		return false
	}
	return len(obj.Name()) >= len(prefix) && obj.Name()[:len(prefix)] == prefix
}

// state is the walker's lock state at one program point.
type state struct {
	held     bool // shard locks currently held
	deferred bool // a deferred unlocks call will release them
}

type walker struct {
	pass  *analysis.Pass
	roles map[types.Object]lockRole
}

// block walks stmts in order, updating st and reporting violations.
func (w *walker) block(stmts []ast.Stmt, st *state) {
	for _, s := range stmts {
		w.stmt(s, st)
	}
}

func (w *walker) stmt(s ast.Stmt, st *state) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.block(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.exprCalls(s.Cond, st)
		thenSt := *st
		w.block(s.Body.List, &thenSt)
		elseSt := *st
		if s.Else != nil {
			w.stmt(s.Else, &elseSt)
		}
		// A terminating branch (unlock-and-return abort path) does not
		// contribute its exit state to the fall-through.
		thenTerm := terminates(s.Body.List)
		elseTerm := s.Else != nil && terminatesStmt(s.Else)
		switch {
		case thenTerm && elseTerm:
			// Unreachable after the if; keep entry state.
		case thenTerm:
			*st = elseSt
		case elseTerm:
			*st = thenSt
		default:
			st.held = thenSt.held || elseSt.held
			st.deferred = thenSt.deferred || elseSt.deferred
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.exprCalls(s.Cond, st)
		bodySt := *st
		w.block(s.Body.List, &bodySt)
		if s.Post != nil {
			w.stmt(s.Post, &bodySt)
		}
	case *ast.RangeStmt:
		w.exprCalls(s.X, st)
		bodySt := *st
		w.block(s.Body.List, &bodySt)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				caseSt := *st
				w.block(cc.Body, &caseSt)
				return false
			}
			return true
		})
	case *ast.SelectStmt:
		if st.held {
			w.pass.Reportf(s.Pos(), "select (blocking) while shard locks are held")
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				caseSt := *st
				w.block(cc.Body, &caseSt)
			}
		}
	case *ast.SendStmt:
		if st.held {
			w.pass.Reportf(s.Arrow, "channel send while shard locks are held")
		}
		w.exprCalls(s.Value, st)
	case *ast.DeferStmt:
		if w.roleOf(s.Call) == roleUnlocks {
			st.deferred = true
			return
		}
		w.exprCalls(s.Call, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.exprCalls(r, st)
		}
		if st.held && !st.deferred {
			w.pass.Reportf(s.Return, "return with shard locks held; release them first")
		}
	case *ast.GoStmt:
		// The goroutine runs outside the critical section; its body is
		// walked when its function literal is (not) analyzed here.
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	default:
		// Assignments, expression statements, declarations: scan for
		// calls in source order.
		w.exprCalls(s, st)
	}
}

// exprCalls scans any node for calls and applies acquire/release/blocking
// rules in source order.
func (w *walker) exprCalls(n ast.Node, st *state) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate execution context
		case *ast.CallExpr:
			w.call(n, st)
		}
		return true
	})
}

func (w *walker) call(call *ast.CallExpr, st *state) {
	switch w.roleOf(call) {
	case roleLocks:
		if st.held {
			w.pass.Reportf(call.Pos(), "nested shard lock acquisition (locks already held); merge the masks and lock once")
		}
		st.held = true
		return
	case roleUnlocks:
		st.held = false
		return
	}
	if !st.held {
		return
	}
	if fn := analysis.Callee(w.pass, call); fn != nil {
		if pkg, why := blockingPackage(fn); pkg != "" {
			w.pass.Reportf(call.Pos(), "%s while shard locks are held; release before %s", why, pkg)
		}
	}
}

func (w *walker) roleOf(call *ast.CallExpr) lockRole {
	fn := analysis.Callee(w.pass, call)
	if fn == nil {
		return roleNone
	}
	return w.roles[fn]
}

// blockingPackage classifies calls that must not run under shard locks.
func blockingPackage(fn *types.Func) (pkg, why string) {
	p := fn.Pkg()
	if p == nil {
		return "", ""
	}
	path := p.Path()
	switch {
	case path == "net" || hasPrefix(path, "net/"):
		return path, "network call"
	case path == "os" || hasPrefix(path, "os/"):
		return path, "file/process syscall"
	case path == "syscall":
		return path, "raw syscall"
	case path == "time" && fn.Name() == "Sleep":
		return "time.Sleep", "sleep"
	}
	return "", ""
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// terminates reports whether control cannot fall off the end of stmts.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	return terminatesStmt(stmts[len(stmts)-1])
}

func terminatesStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.GOTO || s.Tok == token.BREAK || s.Tok == token.CONTINUE
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		return terminates(s.Body.List) && s.Else != nil && terminatesStmt(s.Else)
	}
	return false
}

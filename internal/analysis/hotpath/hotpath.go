// Package hotpath is the annotation-driven allocation lint for the
// request serve path. The paper's control loop only observes honest
// saturation signals if the measured path stays mechanically cheap, so
// the steady-state cycle — /txn serve, gate admission, telemetry record,
// unsampled trace cycle, proxy relay — is annotated `//loadctl:hotpath`
// and this analyzer keeps it allocation-free:
//
//   - within a hot function (marked, or reachable from a marked function
//     through same-package static calls) it flags the constructs that
//     allocate or schedule: fmt/encoding/json/regexp calls, allocating
//     strconv/strings/sort helpers, time.Now (the sampler owns the
//     clock), string concatenation and string<->[]byte conversions, map
//     and slice literals, make, go statements, closures in escaping
//     positions, and arguments implicitly boxed into interface
//     parameters;
//   - hotness crosses package boundaries by annotation, not inference: a
//     hot function calling into a package that participates in the scheme
//     (exports any hotpath fact) must call annotated functions. That is
//     what forces the annotation to be threaded through every layer.
//
// Audited exceptions are waived line by line with
// `//loadctl:allocok <reason>`; the reason is mandatory (checked by the
// directive analyzer) because a waiver without an audit trail is just a
// disabled check. A waived call site also stops hotness propagation
// through that call — "this call was audited" covers the callee.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"github.com/tpctl/loadctl/internal/analysis"
)

// Analyzer is the hotpath analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "//loadctl:hotpath functions and their callees must not allocate (waive audited lines with //loadctl:allocok)",
	Run:  run,
}

// Directive names.
const (
	Directive       = "hotpath"
	WaiverDirective = "allocok"
)

// hotFact marks an exported-or-method function as on the hot path; its
// presence in a package's fact file is also the signal that the package
// participates in the annotation scheme.
type hotFact struct {
	Marked bool // explicitly annotated (vs reached transitively)
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:   pass,
		waived: map[string]bool{},
	}
	for _, d := range pass.Directives() {
		if d.Name == WaiverDirective {
			pos := pass.Fset.Position(d.Pos)
			c.waived[fmt.Sprintf("%s:%d", pos.Filename, d.Line)] = true
		}
	}

	// Collect declarations and explicit marks.
	decls := map[*types.Func]*ast.FuncDecl{}
	hot := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if analysis.HasDirective(fd.Doc, Directive) {
				hot[fn] = true
			}
		}
	}

	// Close over same-package static calls: a function called from hot
	// code (at a non-waived call site) is hot too.
	changed := true
	for changed {
		changed = false
		for fn, fd := range decls {
			if !hot[fn] || fd.Body == nil {
				continue
			}
			for _, callee := range c.localCallees(fd) {
				if _, inPkg := decls[callee]; inPkg && !hot[callee] {
					hot[callee] = true
					changed = true
				}
			}
		}
	}

	// Export facts before checking bodies so PackageHasFacts sees the
	// current package too (self-calls resolve in-package, so order only
	// matters for importers).
	for fn := range hot {
		if analysis.ObjKey(fn) != "" {
			pass.ExportObjectFact(fn, hotFact{Marked: analysis.HasDirective(decls[fn].Doc, Directive)})
		}
	}

	for fn, fd := range decls {
		if hot[fn] && fd.Body != nil {
			c.checkBody(fd)
		}
	}
	return nil
}

type checker struct {
	pass   *analysis.Pass
	waived map[string]bool // "file:line" with an allocok waiver
}

// report emits a diagnostic unless the line carries an allocok waiver.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	p := c.pass.Fset.Position(pos)
	if c.waived[fmt.Sprintf("%s:%d", p.Filename, p.Line)] {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// localCallees lists the same-package functions statically called in fd,
// skipping waived call sites (an audited call does not propagate
// hotness).
func (c *checker) localCallees(fd *ast.FuncDecl) []*types.Func {
	var out []*types.Func
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(c.pass, call)
		if fn == nil || fn.Pkg() != c.pass.Pkg {
			return true
		}
		p := c.pass.Fset.Position(call.Pos())
		if c.waived[fmt.Sprintf("%s:%d", p.Filename, p.Line)] {
			return true
		}
		out = append(out, fn)
		return true
	})
	return out
}

// checkBody flags allocating constructs in one hot function.
func (c *checker) checkBody(fd *ast.FuncDecl) {
	skipConcat := map[ast.Node]bool{} // inner operands of an already-flagged concat
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !skipConcat[n] && c.isAllocatingConcat(n) {
				c.report(n.OpPos, "string concatenation allocates on the hot path; use an append buffer or precomputed strings")
				skipConcat[n.X] = true
				skipConcat[n.Y] = true
			} else if skipConcat[n] {
				skipConcat[n.X] = true
				skipConcat[n.Y] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if b, ok := c.typeOf(n.Lhs[0]).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					c.report(n.TokPos, "string concatenation allocates on the hot path; use an append buffer or precomputed strings")
				}
			}
		case *ast.CompositeLit:
			switch c.typeOf(n).Underlying().(type) {
			case *types.Map:
				c.report(n.Pos(), "map literal allocates on the hot path")
			case *types.Slice:
				c.report(n.Pos(), "slice literal allocates on the hot path")
			}
		case *ast.GoStmt:
			c.report(n.Pos(), "go statement on the hot path (allocates and schedules); hand work to a pre-started worker instead")
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if fl, ok := r.(*ast.FuncLit); ok {
					c.report(fl.Pos(), "closure returned from hot path escapes (allocates)")
				}
			}
		case *ast.SendStmt:
			if fl, ok := n.Value.(*ast.FuncLit); ok {
				c.report(fl.Pos(), "closure sent on channel escapes (allocates)")
			}
		}
		return true
	})
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	if t := c.pass.TypesInfo.TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

// isAllocatingConcat reports whether the + is a non-constant string
// concatenation.
func (c *checker) isAllocatingConcat(n *ast.BinaryExpr) bool {
	tv, ok := c.pass.TypesInfo.Types[n]
	if !ok || tv.Value != nil { // constant-folded: free
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func (c *checker) checkCall(call *ast.CallExpr) {
	// Conversions: string <-> []byte/[]rune copies.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}

	// Builtins: make allocates.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "make" {
				c.report(call.Pos(), "make on the hot path allocates; preallocate in setup and reuse")
			}
			return
		}
	}

	if fn := analysis.Callee(c.pass, call); fn != nil && fn.Pkg() != nil {
		if why := denylisted(fn); why != "" {
			c.report(call.Pos(), "%s", why)
		} else if fn.Pkg() != c.pass.Pkg {
			c.checkCrossPackage(call, fn)
		}
	}

	// Escaping closures and implicit interface boxing in arguments.
	sig, _ := c.typeOf(call.Fun).Underlying().(*types.Signature)
	for i, arg := range call.Args {
		if fl, ok := arg.(*ast.FuncLit); ok {
			c.report(fl.Pos(), "closure passed as argument escapes (allocates); hoist it or use a method value on a long-lived receiver")
			continue
		}
		if sig != nil {
			c.checkBoxing(arg, paramType(sig, i, call))
		}
	}
}

// checkConversion flags allocating string conversions.
func (c *checker) checkConversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	if tv, ok := c.pass.TypesInfo.Types[call]; ok && tv.Value != nil {
		return // constant conversion: free
	}
	src := c.typeOf(call.Args[0])
	tb, _ := target.Underlying().(*types.Basic)
	sb, _ := src.Underlying().(*types.Basic)
	switch {
	case tb != nil && tb.Info()&types.IsString != 0 && (sb == nil || sb.Info()&types.IsString == 0):
		c.report(call.Pos(), "conversion to string allocates on the hot path")
	case sb != nil && sb.Info()&types.IsString != 0 && isByteOrRuneSlice(target):
		c.report(call.Pos(), "string to byte/rune slice conversion allocates on the hot path")
	}
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// checkCrossPackage enforces annotation threading: calls from hot code
// into a package that participates in the hotpath scheme must target
// annotated (hot) functions.
func (c *checker) checkCrossPackage(call *ast.CallExpr, fn *types.Func) {
	if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return // dynamic dispatch: no stable callee identity
	}
	if analysis.ObjKey(fn) == "" {
		return
	}
	var f hotFact
	if c.pass.ImportObjectFact(fn, &f) {
		return // callee is hot-annotated (or transitively hot) over there
	}
	if c.pass.PackageHasFacts(fn.Pkg().Path()) {
		c.report(call.Pos(), "hot path calls %s.%s, which is not on package %s's annotated hot path; annotate it //loadctl:hotpath or waive this audited call", fn.Pkg().Name(), fn.Name(), fn.Pkg().Name())
	}
}

// checkBoxing flags a concrete non-pointer-shaped argument passed to an
// interface parameter: the conversion heap-allocates the value.
func (c *checker) checkBoxing(arg ast.Expr, param types.Type) {
	if param == nil || !types.IsInterface(param) {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[arg]
	if !ok || tv.Value != nil || tv.IsNil() {
		return // constants live in static data; nil doesn't box
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return // pointer-shaped or already an interface: no allocation
	}
	c.report(arg.Pos(), "%s is boxed into %s here (allocates); pass a pointer or restructure", typeName(tv.Type), typeName(param))
}

// paramType resolves the static parameter type for argument i, expanding
// variadics.
func paramType(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if call.Ellipsis.IsValid() {
			return sig.Params().At(n - 1).Type() // f(xs...): no per-arg boxing
		}
		sl, ok := sig.Params().At(n - 1).Type().(*types.Slice)
		if !ok {
			return nil
		}
		return sl.Elem()
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

// denylisted classifies calls that allocate (or otherwise do not belong
// on the hot path) regardless of arguments.
func denylisted(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	path, name := pkg.Path(), fn.Name()
	switch path {
	case "fmt":
		return "fmt." + name + " allocates on the hot path (formatting and boxing); use append-based encoding"
	case "encoding/json":
		return "encoding/json." + name + " allocates on the hot path; use the preallocated encoders"
	case "regexp":
		return "regexp." + name + " on the hot path; match manually or hoist the work"
	case "time":
		if name == "Now" {
			return "time.Now on the hot path; the sampler owns the clock — reuse its timestamp (time.Since of the recorded start)"
		}
	case "strconv":
		switch name {
		case "Itoa", "Quote", "QuoteRune", "FormatBool", "FormatInt", "FormatUint", "FormatFloat":
			return "strconv." + name + " allocates a string on the hot path; use strconv.Append* into a reused buffer"
		}
	case "strings":
		switch name {
		case "Join", "Repeat", "Replace", "ReplaceAll", "Split", "SplitN", "SplitAfter", "Fields", "ToUpper", "ToLower", "Map", "Title":
			return "strings." + name + " allocates on the hot path"
		}
	case "sort":
		switch name {
		case "Sort", "Stable", "Slice", "SliceStable":
			return "sort." + name + " on the hot path (boxing/closure); keep hot data pre-sorted or inline the comparisons"
		}
	}
	return ""
}

func typeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

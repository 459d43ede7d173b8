// Package analysis is a small, dependency-free analog of
// golang.org/x/tools/go/analysis: just enough framework to write the
// repo's own vet checks (cmd/loadctlvet) without pulling x/tools into the
// module. It mirrors the upstream shape — an Analyzer runs over one
// type-checked package at a time through a Pass — and speaks the same
// driver protocols: the `go vet -vettool` unitchecker protocol (unit.go)
// for CI and a `go list -export`-based loader (load.go) for tests and
// local runs.
//
// Cross-package state flows through object facts: per-function or
// per-type records keyed by a stable "pkgpath.Name" string, serialized as
// JSON into the .vetx files the go command threads from each package's
// vet run to its importers' runs. Only packages of the analyzed module
// carry facts; everything else imports as plain export data.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis: a named check run independently
// over each package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and enables the
	// -<name> driver flag.
	Name string
	// Doc is the help text.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one reported problem.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass is the interface through which an Analyzer sees one package:
// its syntax, types, and the fact store shared with the passes of its
// dependencies.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Sources maps each file to its raw bytes (for line-scoped directive
	// resolution).
	Sources map[*ast.File][]byte
	// Report delivers one diagnostic.
	Report func(Diagnostic)

	facts *factStore
}

// Directives collects the loadctl line directives of every file in the
// pass.
func (p *Pass) Directives() []LineDirective {
	var out []LineDirective
	for _, f := range p.Files {
		out = append(out, FileDirectives(p.Fset, f, p.Sources[f])...)
	}
	return out
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact records a fact about obj, visible to later passes over
// packages that import this one. obj must belong to the current package.
// fact must be JSON-serializable.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	p.facts.export(p.Analyzer.Name, obj, fact)
}

// PackageHasFacts reports whether any fact of this analyzer was recorded
// for an object of the package with the given path — the signal that the
// package opted into the analyzer's annotation scheme.
func (p *Pass) PackageHasFacts(pkgPath string) bool {
	return p.facts.hasAnyFor(p.Analyzer.Name, pkgPath)
}

// ImportObjectFact loads the fact recorded for obj (typically by the pass
// over the package that declares it) into fact, reporting whether one was
// found.
func (p *Pass) ImportObjectFact(obj types.Object, fact any) bool {
	return p.facts.imp(p.Analyzer.Name, obj, fact)
}

// ObjKey is the stable cross-package identity facts are keyed by:
// "pkgpath.Name" for package-level objects, "pkgpath.Recv.Name" for
// methods. It is empty for objects facts cannot describe (locals,
// builtins, objects without a package).
func ObjKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			name = named.Obj().Name() + "." + name
		}
	} else if obj.Parent() != obj.Pkg().Scope() {
		return "" // non-package-level non-method object
	}
	return obj.Pkg().Path() + "." + name
}

// Callee resolves the statically called *types.Func of call, if any. A
// call through a generic instantiation resolves to the generic
// declaration, the object Defs holds and facts are keyed by.
func Callee(pass *Pass, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// Directive support. Repo invariants are declared in source with
// "//loadctl:<name>" comments; the helpers here parse them uniformly so
// every analyzer agrees on placement rules.

// DirectivePrefix starts every loadctl source directive.
const DirectivePrefix = "//loadctl:"

// HasDirective reports whether the doc comment carries the directive
// (e.g. HasDirective(fn.Doc, "hotpath")).
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if d, _, ok := parseDirective(c.Text); ok && d == name {
			return true
		}
	}
	return false
}

// parseDirective splits one comment into (directive, argument). The
// argument is the trailing free text ("//loadctl:allocok audited: ...").
func parseDirective(text string) (name, arg string, ok bool) {
	if !strings.HasPrefix(text, DirectivePrefix) {
		return "", "", false
	}
	rest := text[len(DirectivePrefix):]
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i+1:]), true
	}
	return rest, "", true
}

// A LineDirective is one loadctl directive with its location.
type LineDirective struct {
	Name string
	Arg  string
	Pos  token.Pos
	// Line is the source line the directive governs: its own line for a
	// trailing comment, the following line for a comment on its own line.
	Line int
}

// FileDirectives collects every loadctl directive in the file, resolving
// the governed line of each. src is the file's source (for telling a
// trailing comment from an indented stand-alone one); nil src treats only
// column-1 comments as stand-alone.
func FileDirectives(fset *token.FileSet, f *ast.File, src []byte) []LineDirective {
	var out []LineDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, arg, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			line := pos.Line
			if standsAlone(src, pos) {
				// Comment on its own line: governs the next line.
				line++
			}
			out = append(out, LineDirective{Name: name, Arg: arg, Pos: c.Pos(), Line: line})
		}
	}
	return out
}

// standsAlone reports whether only whitespace precedes the comment on its
// line, i.e. it is not trailing code.
func standsAlone(src []byte, pos token.Position) bool {
	if pos.Column == 1 {
		return true
	}
	if src == nil || pos.Offset > len(src) {
		return false
	}
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case ' ', '\t':
			continue
		case '\n':
			return true
		default:
			return false
		}
	}
	return true
}

// Package analysis is the project's static-invariant suite: a small,
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis surface (Analyzer, Pass, Diagnostic) plus four custom
// analyzers that prove, at compile time, the structural invariants the
// simulator's correctness and performance claims rest on:
//
//   - hotpathalloc: functions annotated //glitchsim:hotpath must not
//     contain heap-allocating constructs (the kernels' zero
//     steady-state-allocation guarantee, statically).
//   - kernelpoll: unbounded loops in hotpath functions must poll the
//     cancellation/budget state (pollState.due/poll), so no kernel can
//     silently lose budget enforcement.
//   - typederr: every non-2xx reply in internal/service must flow
//     through the Code* taxonomy helpers — no naked http.Error,
//     WriteHeader(4xx/5xx) or code-less error envelopes.
//   - ctxbg: context.Background()/context.TODO() are forbidden outside
//     package main, _test.go files and Deprecated compatibility
//     wrappers, so cancellation stays plumbed end to end.
//
// cmd/glitchsim-vet packages the suite as a `go vet -vettool=`
// multichecker; the analysistest subpackage runs each analyzer over
// fixture packages with // want expectations.
//
// The x/tools module is deliberately not imported (the repo is
// dependency-free); the subset implemented here — syntax plus full
// go/types information per package, no cross-package facts — is all
// these analyzers need.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass presents one package to an analyzer: parsed syntax with
// comments, complete type information, and a diagnostic sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full invariant suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{HotPathAlloc, KernelPoll, TypedErr, CtxBG}
}

// HotPathDirective is the annotation that opts a function into the
// hotpathalloc and kernelpoll invariants. It is written as a directive
// comment (no space after //) in the function's doc comment:
//
//	// evalTouched re-evaluates every touched cell.
//	//
//	//glitchsim:hotpath
//	func (s *Simulator) evalTouched(t int) { ... }
const HotPathDirective = "//glitchsim:hotpath"

// isHotPath reports whether a function declaration carries the
// //glitchsim:hotpath directive in its doc comment.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, HotPathDirective) {
			return true
		}
	}
	return false
}

// hotPathFuncs returns every function in the pass annotated
// //glitchsim:hotpath.
func hotPathFuncs(pass *Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && isHotPath(fn) {
				out = append(out, fn)
			}
		}
	}
	return out
}

// calleePkgPath returns the import path of the package a call's callee
// belongs to ("" for builtins, locals and method values that cannot be
// resolved), plus the callee's name.
func calleePkgPath(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun]; ok && obj.Pkg() != nil {
			return obj.Pkg().Path(), obj.Name()
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel]; ok && obj.Pkg() != nil {
			return obj.Pkg().Path(), obj.Name()
		}
	}
	return "", ""
}

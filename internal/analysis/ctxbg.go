package analysis

import (
	"go/ast"
	"strings"
)

// CtxBG keeps cancellation plumbed end to end: context.Background()
// and context.TODO() mint fresh root contexts, so a call in a library
// path silently detaches everything below it from the caller's
// cancellation and budget. They are allowed only where a root context
// is legitimately born:
//
//   - package main (process entry points own their root);
//   - _test.go files (tests are their own entry points).
//
// Everything else must accept a context or take one from an
// explicitly-configured base (e.g. jobs.Options.BaseContext).
var CtxBG = &Analyzer{
	Name: "ctxbg",
	Doc:  "forbid context.Background/TODO outside main and tests",
	Run:  runCtxBG,
}

func runCtxBG(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	info := pass.TypesInfo
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := calleePkgPath(info, call)
			if pkg != "context" || (name != "Background" && name != "TODO") {
				return true
			}
			pass.Reportf(call.Pos(), "context.%s() in a library path detaches cancellation; accept a context or use a configured base context", name)
			return true
		})
	}
	return nil
}

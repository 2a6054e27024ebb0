package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// The benchmark drives the program only through its user entry points,
// so refactors of the store's internals and the kernel options can land
// without editing it. These are the internals it must not touch: names
// it may not select, methods it may not call, and option fields it may
// not set.
var (
	forbiddenNames = map[string]string{
		"View":            "core.Ingest.View / stream.View",
		"ShardedView":     "stream.ShardedView",
		"NewView":         "stream.NewView",
		"NewShardedView":  "stream.NewShardedView",
		"BackendParallel": "core.BackendParallel",
	}
	forbiddenCalls = map[string]string{
		"Sharded": "core.Ingest.Sharded",
		"Durable": "core.Ingest.Durable",
	}
	forbiddenFields = map[string]string{
		"Kernel": "assoc.MulOptions.Kernel",
	}
)

func TestUsesOnlyUserEntryPoints(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		report := func(id *ast.Ident, table map[string]string) {
			if what, bad := table[id.Name]; bad {
				t.Errorf("%s: uses %s", fset.Position(id.Pos()), what)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				report(x.Sel, forbiddenNames)
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
					report(sel.Sel, forbiddenCalls)
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					report(id, forbiddenFields)
				}
			}
			return true
		})
	}
}

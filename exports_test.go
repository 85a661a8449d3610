package banger_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledAllowed names the exported top-level functions and methods
// that no non-test code calls and that stay anyway, each with its
// reason. A name is its package's import path, a dot and the function's
// name, or the receiver type's name, a dot and the method's.
var uncalledAllowed = map[string]string{
	"repro/internal/graph.Chain":    "a fixture the tests of several packages share",
	"repro/internal/graph.Diamond":  "a fixture the tests of several packages share",
	"repro/internal/graph.ForkJoin": "a fixture the tests of several packages share",

	"repro/internal/core.Environment.Predict":    "the core.Environment facade, audited with banger.go",
	"repro/internal/core.Environment.RunVirtual": "the core.Environment facade, audited with banger.go",
	"repro/internal/core.Environment.RunWith":    "the core.Environment facade, audited with banger.go",

	"repro/internal/graph.Graph.CriticalPath": "the reference the tests check BLevel and MH's makespan bound against",
	"repro/internal/graph.Graph.Descendants":  "the reference the tests check Ancestors against",
	"repro/internal/wire.Fleet.ActiveRuns":    "the observation the serve and fleet tests check the server's run cap and concurrent fleet runs by",
}

// uncalledReason says why a function no non-test code calls may stay,
// or "" when nothing does.
func uncalledReason(file, name string) string {
	switch {
	case filepath.Base(file) == "banger.go" && filepath.Dir(file) == ".":
		return "the package's facade, audited on its own"
	case strings.HasPrefix(path.Ext(name), ".Must"):
		return "a panicking helper that tests build fixtures with"
	}
	return uncalledAllowed[name]
}

// TestNoUncalledExports fails on an exported top-level function of a
// non-test file that no non-test file references, and on an exported
// method that no non-test file selects by its name on any value (the
// scan knows no types: a selector of the same name anywhere counts). The
// request-path harness under bench/ counts as a caller. Code only tests
// reach belongs in a _test.go file, or nowhere.
func TestNoUncalledExports(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	type decl struct{ file, name string }
	var decls, methods []decl
	used, selected := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata" || n == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		mark := func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						used[imports[id.Name]+"."+x.Sel.Name] = true
					}
					selected[x.Sel.Name] = true
				case *ast.Ident:
					used[pkg+"."+x.Name] = true
				}
				return true
			})
		}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				mark(dl)
				continue
			}
			if fd.Body != nil {
				mark(fd.Body)
			}
			switch {
			case !fd.Name.IsExported() || f.Name.Name == "main":
			case fd.Recv == nil:
				decls = append(decls, decl{p, pkg + "." + fd.Name.Name})
			default:
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					methods = append(methods, decl{p, pkg + "." + id.Name + "." + fd.Name.Name})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, d := range decls {
		if !used[d.name] && uncalledReason(d.file, d.name) == "" {
			bad = append(bad, d.name+" ("+d.file+")")
		}
	}
	for _, m := range methods {
		if !selected[path.Ext(m.name)[1:]] && uncalledReason(m.file, m.name) == "" {
			bad = append(bad, m.name+" ("+m.file+")")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s: exported, and no non-test code calls it", b)
	}
	if len(decls) == 0 {
		t.Fatal("the scan found no exported function at all")
	}
}

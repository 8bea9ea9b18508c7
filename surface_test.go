package unbiasedfl_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"

	"unbiasedfl/internal/testutil"
)

// TestFacadeSurface pins the façade's exported surface, one declaration per
// line with its signature, to testdata/golden/api.txt. The façade keeps one
// entry point per capability — NewSession and its methods for experiments,
// RunScenarioWith for scenarios, one RunConfig for execution — so a second
// way in shows up here as a diff. After an intentional API change:
//
//	go test . -run TestFacadeSurface -update
func TestFacadeSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["unbiasedfl"]
	if !ok {
		t.Fatalf("package unbiasedfl not found among %d parsed packages", len(pkgs))
	}
	render := func(node any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, node); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var lines []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || (d.Recv != nil && !exportedReceiver(d.Recv)) {
					continue
				}
				lines = append(lines, render(&ast.FuncDecl{Recv: d.Recv, Name: d.Name, Type: d.Type}))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						if s.Assign.IsValid() {
							lines = append(lines, "type "+s.Name.Name+" = "+render(s.Type))
						} else {
							lines = append(lines, "type "+s.Name.Name+" "+typeKind(s.Type))
						}
					case *ast.ValueSpec:
						for i, name := range s.Names {
							if !name.IsExported() {
								continue
							}
							line := d.Tok.String() + " " + name.Name
							if i < len(s.Values) {
								line += " = " + render(s.Values[i])
							}
							lines = append(lines, line)
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	testutil.Golden(t, "api.txt", []byte(strings.Join(lines, "\n")+"\n"), *testutil.Update)
}

// exportedReceiver reports whether a method's receiver type is exported.
func exportedReceiver(recv *ast.FieldList) bool {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}

// typeKind names a defined type's underlying kind without its fields, which
// are unexported throughout the façade.
func typeKind(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StructType:
		return "struct"
	case *ast.InterfaceType:
		return "interface"
	case *ast.FuncType:
		return "func"
	case *ast.Ident:
		return e.Name
	}
	return "other"
}

package natpunch

// The API-surface golden test: a go-doc-style dump of every exported
// declaration across the public packages is pinned under testdata/,
// so an accidental public-API break (or silent addition) fails
// tier-1. Regenerate intentionally with:
//
//	go test -run TestAPISurfaceGolden . -update
//
// and review the diff like any other API change.

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// publicPackages lists every directory whose exported surface is part
// of the public API contract.
var publicPackages = []string{".", "stream", "transport", "simnet", "realudp", "rendezvousapi", "relayapi", "natcheckapi"}

func TestAPISurfaceGolden(t *testing.T) {
	var out bytes.Buffer
	for _, dir := range publicPackages {
		dump, err := dumpExported(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		name := dir
		if name == "." {
			name = "natpunch"
		}
		fmt.Fprintf(&out, "# package %s\n%s\n", name, dump)
	}
	golden := filepath.Join("testdata", "api.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("public API surface changed; if intentional, regenerate with -update and review.\n--- got ---\n%s\n--- want ---\n%s",
			out.String(), want)
	}
}

// dumpExported renders dir's exported declarations, one per line
// block, sorted for stability.
func dumpExported(dir string) (string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return "", err
	}
	var decls []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.FileExports(file)
			for _, decl := range file.Decls {
				for _, txt := range renderDecl(fset, decl) {
					decls = append(decls, txt)
				}
			}
		}
	}
	sort.Strings(decls)
	return strings.Join(decls, "\n"), nil
}

// renderDecl prints one exported declaration without bodies or doc
// comments; GenDecls are split so each spec sorts independently.
func renderDecl(fset *token.FileSet, decl ast.Decl) []string {
	cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 4}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !exportedFunc(d) {
			return nil
		}
		d.Body = nil
		d.Doc = nil
		var buf bytes.Buffer
		cfg.Fprint(&buf, fset, d)
		return []string{buf.String()}
	case *ast.GenDecl:
		if d.Tok == token.IMPORT {
			return nil
		}
		var out []string
		for _, spec := range d.Specs {
			if !exportedSpec(spec) {
				continue
			}
			single := &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{spec}}
			var buf bytes.Buffer
			cfg.Fprint(&buf, fset, single)
			out = append(out, buf.String())
		}
		return out
	}
	return nil
}

func exportedFunc(d *ast.FuncDecl) bool {
	if !d.Name.IsExported() {
		return false
	}
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	// Methods survive FileExports only on exported receivers, but be
	// explicit: an unexported receiver type is not public surface.
	t := d.Recv.List[0].Type
	for {
		switch rt := t.(type) {
		case *ast.StarExpr:
			t = rt.X
		case *ast.IndexExpr:
			t = rt.X
		case *ast.Ident:
			return rt.IsExported()
		default:
			return true
		}
	}
}

func exportedSpec(spec ast.Spec) bool {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return s.Name.IsExported()
	case *ast.ValueSpec:
		for _, n := range s.Names {
			if n.IsExported() {
				return true
			}
		}
		return false
	}
	return true
}

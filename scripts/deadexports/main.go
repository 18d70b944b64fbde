// Command deadexports is the CI dead-export gate. Run from the repository
// root, it parses every .go file outside testdata/ with go/parser and
// fails on:
//
//   - an exported top-level func, method, type, var or const declared in a
//     non-test file under internal/ whose name occurs as an identifier in
//     no non-test file other than at its declaration (bench/, cmd/,
//     examples/ and scripts/ count as callers);
//   - an internal/ package that exports a name but that no non-test file
//     imports;
//   - an entry of scripts/deadexports/allow.txt that is not a finding, so
//     the list can only shrink.
//
// allow.txt lists the findings that pass, one "key  reason" a line; the key
// is the one the gate prints: pkg.Name, pkg.Type.Method, or the bare
// package path. The match is by name, so a dead name that collides with a
// live one is hidden, but a live name is never reported.
//
// Usage:
//
//	go run ./scripts/deadexports
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	problems, err := check(".", filepath.Join("scripts", "deadexports", "allow.txt"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "deadexports: %d problem(s): delete the dead code, or list it in scripts/deadexports/allow.txt with a reason\n", len(problems))
		os.Exit(1)
	}
}

// check scans the module rooted at root against the allowlist at allowPath
// and returns one line per problem, sorted.
func check(root, allowPath string) ([]string, error) {
	allow, err := readAllow(allowPath)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	var files []*ast.File
	declared := map[token.Pos]string{} // declaring ident -> key
	exporter := map[string]string{}    // package -> its directory
	imported := map[string]bool{}      // import paths past "/internal/"
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || n[0] == '.' || n[0] == '_') {
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
		files = append(files, f)
		for _, im := range f.Imports {
			path, _ := strconv.Unquote(im.Path.Value) // the parser checked the literal
			if _, pkg, ok := strings.Cut(path, "/internal/"); ok {
				imported[pkg] = true
			}
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if pkg, ok := strings.CutPrefix(filepath.ToSlash(rel), "internal/"); ok && exported(f, pkg, declared) {
			exporter[pkg] = filepath.ToSlash(filepath.Dir(p))
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && declared[id.Pos()] == "" {
				used[id.Name] = true
			}
			return true
		})
	}
	findings := map[string]string{} // key -> message
	for pos, key := range declared {
		if name := key[strings.LastIndex(key, ".")+1:]; !used[name] {
			at := fset.Position(pos)
			findings[key] = fmt.Sprintf("%s:%d: %s has no non-test reference", filepath.ToSlash(at.Filename), at.Line, key)
		}
	}
	for pkg, dir := range exporter {
		if !imported[pkg] {
			findings[pkg] = fmt.Sprintf("%s: package %s is imported by no non-test file", dir, pkg)
		}
	}

	var problems []string
	for key, msg := range findings {
		if _, ok := allow[key]; !ok {
			problems = append(problems, msg)
		}
	}
	for key, line := range allow {
		if _, ok := findings[key]; !ok {
			problems = append(problems, fmt.Sprintf("%s:%d: allowlist entry %s is not a finding: delete the entry", filepath.ToSlash(allowPath), line, key))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// exported records the key of each exported top-level name f declares in
// package pkg under its declaring ident, and reports whether there was one.
func exported(f *ast.File, pkg string, declared map[token.Pos]string) bool {
	found := false
	add := func(id *ast.Ident, key string) {
		if id.IsExported() {
			declared[id.Pos()] = key
			found = true
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name, pkg+"."+receiver(d)+d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, pkg+"."+s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, pkg+"."+n.Name)
					}
				}
			}
		}
	}
	return found
}

// receiver returns "Type." for a method on Type and "" for a function.
func receiver(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.Ident:
			return v.Name + "."
		default:
			return ""
		}
	}
}

// readAllow parses the allowlist into key -> line number, skipping blank
// lines and # comments. Every entry needs a reason, and a key appears once.
func readAllow(p string) (map[string]int, error) {
	b, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	allow := map[string]int{}
	for i, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: entry %s has no reason", p, i+1, fields[0])
		}
		if prev, dup := allow[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: entry %s repeats line %d", p, i+1, fields[0], prev)
		}
		allow[fields[0]] = i + 1
	}
	return allow, nil
}

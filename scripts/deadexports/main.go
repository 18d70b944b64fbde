// Command deadexports is the CI dead-code gate. Run from the repository
// root, it type-checks the non-test packages of the module and of bench/
// with go/types and fails on each top-level func, method, type, var or
// const of the module (outside bench/ and testdata/), exported or not,
// that no main, init or blank (_) declaration reaches, and on each entry
// of scripts/deadexports/allow.txt that is no such finding, so the list
// only shrinks. A declaration reaches the objects its syntax uses, so a
// type does not reach its methods; a reached type also reaches the
// methods of each interface it implements that reached code names, and
// its runtimeMethods. The rules in full: docs/ARCHITECTURE.md, "Keeping
// dead code out". allow.txt lists what only tests reach, or what waits
// for deletion, one "key  reason" a line; the key is the one the gate
// prints: pkg.Name or pkg.Type.Method, pkg being the package's directory
// less a leading internal/.
//
// Usage:
//
//	go run ./scripts/deadexports
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// runtimeMethods are the methods the standard library calls through type
// assertions inside its own code (fmt, encoding/json, errors), where no
// interface appears in the caller's code.
var runtimeMethods = []string{"Error", "String", "Format", "MarshalJSON", "UnmarshalJSON", "Unwrap", "Is", "As"}

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

// check type-checks the module rooted at root, and root/bench when that is
// a module of its own, against the allowlist at allowPath and returns one
// line per problem, sorted.
func check(root, allowPath string) ([]string, error) {
	allow, err := readAllow(allowPath)
	if err != nil {
		return nil, err
	}
	if root, err = filepath.Abs(root); err != nil {
		return nil, err
	}
	g, err := load(root)
	if err != nil {
		return nil, err
	}
	g.walk()

	findings := map[string]string{} // key -> message
	for obj, d := range g.decls {
		prefix, judged := g.prefix[obj.Pkg()]
		if !judged || d.reached {
			continue
		}
		key := prefix + name(obj)
		at := g.fset.Position(obj.Pos())
		rel, _ := filepath.Rel(root, at.Filename) // both absolute
		findings[key] = fmt.Sprintf("%s:%d: %s is reached by no main", filepath.ToSlash(rel), at.Line, key)
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

// decl is one top-level declaration and what its syntax refers to.
type decl struct {
	reached    bool
	uses       []types.Object
	interfaces []*types.Interface
}

// graph holds the top-level declarations of the loaded packages and the
// reachability state walk computes over them.
type graph struct {
	fset       *token.FileSet
	prefix     map[*types.Package]string // the root module's packages -> their key prefix
	decls      map[types.Object]*decl
	work       []*decl        // reached; their uses not yet followed
	named      []*types.Named // reached types, tested against every reached interface
	interfaces []*types.Interface
	seen       map[*types.Interface]bool
}

// listed is the part of a `go list -json` record load reads.
type listed struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// load type-checks the non-test packages of the module at root and of
// root/bench from source, in dependency order, so an object is one
// types.Object wherever it is used. The standard library comes from the
// build cache's export data.
func load(root string) (*graph, error) {
	mods := []string{root}
	if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err == nil {
		mods = append(mods, filepath.Join(root, "bench"))
	}
	exports := map[string]string{}
	var pkgs []listed
	judged := map[string]bool{} // import path -> listed by the root module
	for i, dir := range mods {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listed
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if _, dup := judged[p.ImportPath]; p.Standard {
				exports[p.ImportPath] = p.Export
			} else if !dup {
				judged[p.ImportPath] = i == 0
				pkgs = append(pkgs, p)
			}
		}
	}

	g := &graph{
		fset:   token.NewFileSet(),
		prefix: map[*types.Package]string{},
		decls:  map[types.Object]*decl{},
		seen:   map[*types.Interface]bool{},
	}
	std := importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(g.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := conf.Check(p.ImportPath, g.fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		if judged[p.ImportPath] {
			rel, _ := filepath.Rel(root, p.Dir) // both absolute
			g.prefix[pkg] = strings.TrimPrefix(filepath.ToSlash(rel), "internal/") + "."
		}
		for _, f := range files {
			g.addFile(info, f)
		}
	}
	return g, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addFile records the top-level declarations of f under their objects,
// and queues main, init and blank declarations as reached.
func (g *graph) addFile(info *types.Info, f *ast.File) {
	add := func(id *ast.Ident, n ast.Node, root bool) {
		d := refs(info, n)
		if root {
			g.work = append(g.work, d)
		} else {
			g.decls[info.Defs[id]] = d
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			add(d.Name, d, d.Recv == nil && (name == "init" || name == "main" && f.Name.Name == "main"))
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s, false)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, s, n.Name == "_")
					}
				}
			}
		}
	}
}

// refs returns a decl holding the objects n's identifiers resolve to and
// the interfaces n names: as an interface literal, or as the type of an
// object, or of a parameter or result of a func, it uses.
func refs(info *types.Info, n ast.Node) *decl {
	d := &decl{}
	seenObj := map[types.Object]bool{}
	seenIface := map[*types.Interface]bool{}
	iface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			d.interfaces = append(d.interfaces, it)
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.InterfaceType:
			iface(info.TypeOf(n))
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil || seenObj[obj] {
				return true
			}
			seenObj[obj] = true
			d.uses = append(d.uses, obj)
			sig, ok := obj.Type().(*types.Signature)
			if !ok {
				iface(obj.Type())
				return true
			}
			for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
				for v := range tuple.Variables() {
					iface(v.Type())
				}
			}
		}
		return true
	})
	return d
}

// walk marks every declaration the queued roots reach.
func (g *graph) walk() {
	checked := map[*types.Named]int{} // how many of g.interfaces each type was tested against
	for len(g.work) > 0 {
		for len(g.work) > 0 {
			d := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			for _, obj := range d.uses {
				g.mark(obj)
			}
			for _, it := range d.interfaces {
				if !g.seen[it] {
					g.seen[it] = true
					g.interfaces = append(g.interfaces, it)
				}
			}
		}
		// A type mark adds here queues work too, so the outer loop comes
		// back for it.
		for _, t := range g.named {
			ptr := types.NewPointer(t)
			for _, it := range g.interfaces[checked[t]:] {
				if types.Implements(ptr, it) {
					for m := range it.Methods() {
						g.method(ptr, m.Pkg(), m.Name())
					}
				}
			}
			checked[t] = len(g.interfaces)
		}
	}
}

// mark reaches obj if it is a declaration not reached yet; a reached type
// also reaches its runtimeMethods.
func (g *graph) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	d := g.decls[obj]
	if d == nil || d.reached {
		return
	}
	d.reached = true
	g.work = append(g.work, d)
	if t, ok := obj.Type().(*types.Named); ok && obj == t.Obj() {
		g.named = append(g.named, t)
		for _, name := range runtimeMethods {
			g.method(types.NewPointer(t), nil, name)
		}
	}
}

// method reaches the method, declared or promoted, called name in the
// method set of ptr, a pointer to a named type.
func (g *graph) method(ptr types.Type, pkg *types.Package, name string) {
	if m, _, _ := types.LookupFieldOrMethod(ptr, false, pkg, name); m != nil {
		g.mark(m) // a field is no declaration, so marking it does nothing
	}
}

// name returns obj's key without the package: Name, or Type.Method.
func name(obj types.Object) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return obj.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t).(*types.Named).Obj().Name() + "." + obj.Name()
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

// Command reach fails when internal/ declares something no binary can reach.
//
// It type-checks every non-test package under cmd/, internal/, examples/ and
// bench/ (bench's repro/... imports resolve to this tree, so nothing the
// benchmark calls is ever reported) and walks identifier uses from every
// main, init and package-level initialiser. A method is reached when reached
// code selects it, or when its receiver type is reached and its name belongs
// to an interface declared in the tree or to one of the standard interfaces
// in stdMethods (dynamic dispatch is invisible to a use walk). Every
// package-level func, method, type, var or const of internal/ that stays
// unreached must be listed in allow.txt, which explains its reasons; an
// entry that is reached, or names nothing, fails too.
//
//	go run ./internal/tools/reach
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	module    = "repro"
	allowFile = "internal/tools/reach/allow.txt"
	maxAllow  = 20 // api + fixture + oracle; "tested" is a backlog that only shrinks
)

// stdMethods are the methods of error, fmt.Stringer, sort.Interface,
// heap.Interface, http.Handler, io.{Reader,Writer,Closer},
// json.{Marshaler,Unmarshaler} and flag.Value.
var stdMethods = []string{"Error", "String", "Len", "Less", "Swap", "Push", "Pop",
	"ServeHTTP", "Read", "Write", "Close", "MarshalJSON", "UnmarshalJSON", "Set"}

var allowReasons = map[string]bool{"api": true, "fixture": true, "oracle": true, "tested": true}

// loader type-checks the tree's packages from source, on demand.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("no package %s in the tree", path)
	}
	parsed, err := parser.ParseDir(l.fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range parsed {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	l.pkgs[path], l.files[path] = p, files
	return p, err
}

// node is one package-level declaration: the objects its source mentions
// and, for a type, its declared methods.
type node struct {
	refs    []types.Object
	methods []*types.Func
}

type graph struct {
	info    *types.Info
	nodes   map[types.Object]*node
	dynamic map[string]bool // method names a dynamic call can reach
	reached map[types.Object]bool
}

// add records the declaration of id, whose source is src.
func (g *graph) add(id *ast.Ident, src ast.Node) *node {
	n := &node{}
	ast.Inspect(src, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.InterfaceType:
			for _, m := range c.Methods.List {
				for _, name := range m.Names {
					g.dynamic[name.Name] = true
				}
			}
		case *ast.Ident:
			switch o := g.info.Uses[c].(type) {
			case *types.Func:
				n.refs = append(n.refs, o.Origin()) // generic functions by origin
			case *types.Var:
				n.refs = append(n.refs, o.Origin())
			case *types.TypeName, *types.Const:
				n.refs = append(n.refs, o)
			}
		}
		return true
	})
	if o := g.info.Defs[id]; o != nil && id.Name != "_" {
		g.nodes[o] = n
	}
	return n
}

func (g *graph) mark(o types.Object) {
	n := g.nodes[o]
	if n == nil || g.reached[o] {
		return // a local, a field, another module's — or seen
	}
	g.reached[o] = true
	for _, r := range n.refs {
		g.mark(r)
	}
	for _, m := range n.methods {
		if g.dynamic[m.Name()] {
			g.mark(m)
		}
	}
}

// recv is the named type o is a method of, nil for anything else.
func recv(o types.Object) *types.TypeName {
	f, ok := o.(*types.Func)
	if !ok || f.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := f.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// name spells o as allow.txt does: pkg.Name or pkg.Type.Method.
func name(o types.Object) string {
	if t := recv(o); t != nil {
		return name(t) + "." + o.Name()
	}
	return o.Pkg().Name() + "." + o.Name()
}

// readAllow parses allow.txt into name -> reason.
func readAllow(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, allowFile))
	if err != nil {
		return nil, err
	}
	allow, kept := map[string]string{}, 0
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, ok := strings.Cut(line, "\t")
		if !ok || !allowReasons[reason] {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Name<TAB>api|fixture|oracle|tested\", got %q", allowFile, i+1, line)
		}
		allow[key] = reason
		if reason != "tested" {
			kept++
		}
	}
	if kept > maxAllow {
		return nil, fmt.Errorf("%s: %d api/fixture/oracle entries, at most %d", allowFile, kept, maxAllow)
	}
	return allow, nil
}

// run returns one complaint per unreached-and-unlisted declaration of
// internal/ and per stale allow.txt entry.
func run(root string) ([]string, error) {
	allow, err := readAllow(root)
	if err != nil {
		return nil, err
	}
	build.Default.CgoEnabled = false // type-check net and os/user from their pure-Go files
	fset := token.NewFileSet()
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		dirs: map[string]string{}, pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{}}
	for _, top := range []string{"cmd", "internal", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if bp, err := build.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
				rel, _ := filepath.Rel(root, p)
				l.dirs[module+"/"+filepath.ToSlash(rel)] = p
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	g := &graph{info: l.info, nodes: map[types.Object]*node{}, dynamic: map[string]bool{}, reached: map[types.Object]bool{}}
	for _, m := range stdMethods {
		g.dynamic[m] = true
	}
	var roots []types.Object
	for path := range l.dirs {
		pkg, err := l.Import(path)
		if err != nil {
			return nil, err
		}
		for _, f := range l.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					g.add(d.Name, d)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main") {
						roots = append(roots, l.info.Defs[d.Name])
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							g.add(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if n := g.add(id, s); d.Tok == token.VAR {
									roots = append(roots, n.refs...) // an initialiser runs whether or not the var is read
								}
							}
						}
					}
				}
			}
		}
	}
	internal := map[string]types.Object{} // what this tool answers for, by allow.txt spelling
	for o := range g.nodes {
		if t := recv(o); t != nil {
			g.nodes[t].methods = append(g.nodes[t].methods, o.(*types.Func))
		}
		if strings.HasPrefix(o.Pkg().Path(), module+"/internal/") && o.Name() != "init" {
			internal[name(o)] = o
		}
	}
	for _, o := range roots {
		g.mark(o)
	}
	var out []string
	for key := range allow {
		switch o := internal[key]; {
		case o == nil:
			out = append(out, fmt.Sprintf("%s: stale entry %s: no such declaration in internal/", allowFile, key))
		case g.reached[o]:
			out = append(out, fmt.Sprintf("%s: stale entry %s: a binary reaches it", allowFile, key))
		}
	}
	for key := range allow {
		g.mark(internal[key]) // what only an allowed declaration uses is allowed with it
	}
	for key, o := range internal {
		if !g.reached[o] {
			p := fset.Position(o.Pos())
			rel, _ := filepath.Rel(root, p.Filename)
			out = append(out, fmt.Sprintf("%s:%d: %s is reached by no binary (delete it, or list it in %s)", rel, p.Line, key, allowFile))
		}
	}
	sort.Strings(out)
	return out, nil
}

func main() {
	root, err := os.Getwd()
	if err == nil {
		var out []string
		if out, err = run(root); err == nil && len(out) > 0 {
			fmt.Println(strings.Join(out, "\n"))
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
}

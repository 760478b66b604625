package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// citedDocs are the Markdown files whose backticked citations must name
// something in the tree.
var citedDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// goFlags are the go command's build and test flags; every flag set also
// answers -h and -help.
var goFlags = []string{"bench", "benchmem", "benchtime", "count", "cover", "cpu", "cpuprofile",
	"failfast", "fuzz", "fuzztime", "h", "help", "json", "list", "memprofile", "o", "parallel",
	"race", "run", "short", "shuffle", "skip", "tags", "timeout", "trimpath", "v", "x"}

// commands are the programs whose flags a Markdown span may cite after
// naming them: the go command, the tree's mains and verify.sh.
var commands = map[string]bool{"go": true, "hris": true, "gendata": true, "experiments": true,
	"bench": true, "reach": true, "verify.sh": true}

// fileExts are the extensions that make a backticked word a file name.
var fileExts = map[string]bool{"go": true, "md": true, "json": true, "sh": true, "txt": true,
	"log": true, "mod": true, "seg": true, "csv": true, "ndjson": true}

var (
	spanRE    = regexp.MustCompile("`([^`]+)`")
	testRE    = regexp.MustCompile(`(?:^|[^\w])((?:Test|Benchmark|Fuzz)[A-Z0-9_][\w*]*)`)
	chainRE   = regexp.MustCompile(`[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	flagRE    = regexp.MustCompile("(?:^|[\\s(`'\"\\[])(--?[a-z][a-z0-9]*(?:-[a-z0-9]+)*)(?:[\\s)`'\",.;:=\\]]|$)")
	snakeRE   = regexp.MustCompile(`^[a-z][a-z0-9]+(?:_[A-Za-z0-9]{2,})+$`)
	designRE  = regexp.MustCompile(`DESIGN\.md\s+(?:§(\d+[a-z]?)(?:\.(\d+))?|"([^"]+)")`)
	sectionRE = regexp.MustCompile(`§(\d+[a-z]?)(?:\.(\d+))?`)
	headingRE = regexp.MustCompile(`(?m)^## (\d+[a-z]?)\. (.+)$`)
	itemRE    = regexp.MustCompile(`(?m)^(\d+)\. `)
	envRE     = regexp.MustCompile(`^[A-Z_][A-Z0-9_]*=`)
	// goishRE is a Go name rather than a word, a metric or a constant:
	// Upper with a lower-case letter, or lowerCamel.
	goishRE  = regexp.MustCompile(`^(?:[A-Z][A-Za-z0-9]*[a-z]|[a-z][A-Za-z0-9]*[A-Z])[A-Za-z0-9]*$`)
	cmdSepRE = regexp.MustCompile(`\||&&|;`)
)

// citeChecker knows every name the tree declares: what the type checker
// defined, what the _test.go files declare, the flags the mains register,
// the non-test string literals, the repo's files and DESIGN.md's headings.
type citeChecker struct {
	root      string
	l         *loader
	pkgs      map[string][]*types.Package // tree package name -> packages
	imports   map[string][]string         // import name -> paths, over every file
	objs      map[string][]types.Object   // every type-checked definition, locals included
	decls     map[string]bool             // package-level, method and field names, tests' included
	testTypes map[string]map[string]bool  // _test.go type -> its methods and fields
	testIdent map[string]bool             // every identifier a _test.go file mentions
	tests     map[string]bool             // Test, Benchmark and Fuzz functions
	flags     map[string]bool
	strs      []string // non-test string literals
	files     map[string]bool
	sections  map[string]string // DESIGN.md section number -> heading
	items     map[string]bool   // "6b.10": numbered items of a DESIGN.md section
	comments  []comment
}

type comment struct {
	at   string // file:line
	text string
}

func newCiteChecker(root string, l *loader) (*citeChecker, error) {
	c := &citeChecker{root: root, l: l, pkgs: map[string][]*types.Package{},
		imports: map[string][]string{}, objs: map[string][]types.Object{}, decls: map[string]bool{},
		testTypes: map[string]map[string]bool{}, testIdent: map[string]bool{}, tests: map[string]bool{},
		flags: map[string]bool{}, files: map[string]bool{}, sections: map[string]string{}, items: map[string]bool{}}
	for _, f := range goFlags {
		c.flags[f] = true
	}
	for _, p := range l.pkgs {
		c.pkgs[p.Name()] = append(c.pkgs[p.Name()], p)
	}
	for _, o := range l.info.Defs {
		if o == nil {
			continue
		}
		c.objs[o.Name()] = append(c.objs[o.Name()], o)
		if o.Parent() == nil || o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
			c.decls[o.Name()] = true
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			c.scanFile(f, false)
		}
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		c.files[d.Name()] = true
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		c.scanFile(f, true)
		return nil
	})
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return nil, err
	}
	heads := headingRE.FindAllStringSubmatchIndex(string(data), -1)
	for i, h := range heads {
		num, end := string(data[h[2]:h[3]]), len(data)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		c.sections[num] = string(data[h[4]:h[5]])
		for _, m := range itemRE.FindAllSubmatch(data[h[1]:end], -1) {
			c.items[num+"."+string(m[1])] = true
		}
	}
	return c, nil
}

// scanFile records what f declares, imports, registers and says.
func (c *citeChecker) scanFile(f *ast.File, test bool) {
	for _, s := range f.Imports {
		p, _ := strconv.Unquote(s.Path.Value)
		name := path.Base(p)
		if s.Name != nil {
			name = s.Name.Name
		}
		c.imports[name] = append(c.imports[name], p)
	}
	file := c.l.fset.Position(f.Pos()).Filename
	rel, _ := filepath.Rel(c.root, file)
	if !strings.HasPrefix(rel, "bench"+string(filepath.Separator)) { // bench/ is its own module's
		for _, g := range f.Comments {
			p := c.l.fset.Position(g.Pos())
			c.comments = append(c.comments, comment{fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line), g.Text()})
		}
	}
	if !test {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
					c.strs = append(c.strs, s)
				}
			case *ast.CallExpr:
				c.flagDef(n)
			}
			return true
		})
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			c.testIdent[id.Name] = true
		}
		return true
	})
	member := func(typ, name string) {
		if c.testTypes[typ] == nil {
			c.testTypes[typ] = map[string]bool{}
		}
		c.testTypes[typ][name] = true
		c.decls[name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			c.decls[d.Name.Name] = true
			if d.Recv == nil {
				if testRE.MatchString(" " + d.Name.Name) {
					c.tests[d.Name.Name] = true
				}
				continue
			}
			t := d.Recv.List[0].Type
			if s, ok := t.(*ast.StarExpr); ok {
				t = s.X
			}
			if id, ok := t.(*ast.Ident); ok {
				member(id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					c.decls[s.Name.Name] = true
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, n := range fl.Names {
								member(s.Name.Name, n.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						c.decls[n.Name] = true
					}
				}
			}
		}
	}
}

// flagDef records the flag a call to one of package flag's definers names.
func (c *citeChecker) flagDef(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.l.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
		return
	}
	i := 0
	switch name := fn.Name(); {
	case strings.HasSuffix(name, "Var"):
		i = 1
	case name != "Bool" && name != "BoolFunc" && name != "Duration" && name != "Float64" && name != "Func" &&
		name != "Int" && name != "Int64" && name != "String" && name != "Uint" && name != "Uint64":
		return
	}
	if i < len(call.Args) {
		if lit, ok := call.Args[i].(*ast.BasicLit); ok {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				c.flags[s] = true
			}
		}
	}
}

// tree checks the cited Markdown files, every Go comment outside bench/ and
// verify.sh, whose lines it reads as a fenced shell block.
func (c *citeChecker) tree() []string {
	var out []string
	for _, name := range citedDocs {
		data, err := os.ReadFile(filepath.Join(c.root, name))
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		out = append(out, c.markdown(name, string(data))...)
	}
	for _, cm := range c.comments {
		out = append(out, c.comment(cm.at, cm.text)...)
	}
	script, err := os.ReadFile(filepath.Join(c.root, "verify.sh"))
	if err != nil {
		return append(out, fmt.Sprintf("verify.sh: %v", err))
	}
	for i, line := range strings.Split(string(script), "\n") {
		out = append(out, c.words(fmt.Sprintf("verify.sh:%d", i+1), line)...)
	}
	return out
}

// markdown checks name's backticked spans, its fenced lines and its DESIGN.md
// pointers (in DESIGN.md itself, every §N).
func (c *citeChecker) markdown(name, text string) []string {
	var out []string
	lines := strings.Split(text, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced, lines[i] = !fenced, ""
		} else if fenced {
			out = append(out, c.words(fmt.Sprintf("%s:%d", name, i+1), line)...)
			lines[i] = ""
		}
	}
	prose := strings.Join(lines, "\n")
	at := func(off int) string { return fmt.Sprintf("%s:%d", name, 1+strings.Count(prose[:off], "\n")) }
	for _, m := range spanRE.FindAllStringSubmatchIndex(prose, -1) {
		span := prose[m[2]:m[3]]
		if strings.Contains(span, "\n\n") {
			continue
		}
		if f := strings.Fields(span); len(f) == 1 {
			out = append(out, c.token(at(m[0]), f[0])...)
		} else {
			out = append(out, c.words(at(m[0]), strings.Join(f, " "))...)
		}
	}
	re := designRE
	if name == "DESIGN.md" {
		re = sectionRE
	}
	for _, m := range re.FindAllStringSubmatchIndex(prose, -1) {
		out = append(out, c.pointer(at(m[0]), prose, m)...)
	}
	return out
}

// comment checks one Go comment: its test names, qualified names, flags and
// DESIGN.md pointers.
func (c *citeChecker) comment(at, text string) []string {
	text = strings.Join(strings.Fields(text), " ")
	out := c.testNames(at, text)
	out = append(out, c.chains(at, text)...)
	for _, m := range flagRE.FindAllStringSubmatch(text, -1) {
		out = append(out, c.flag(at, m[1])...)
	}
	for _, m := range designRE.FindAllStringSubmatchIndex(text, -1) {
		out = append(out, c.pointer(at, text, m)...)
	}
	return out
}

// pointer checks one §N, §N.M or "Heading" match against DESIGN.md.
func (c *citeChecker) pointer(at, text string, m []int) []string {
	if len(m) > 6 && m[6] >= 0 {
		title := text[m[6]:m[7]]
		for _, t := range c.sections {
			if t == title {
				return nil
			}
		}
		return []string{fmt.Sprintf("%s: DESIGN.md has no heading %q", at, title)}
	}
	num := text[m[2]:m[3]]
	if _, ok := c.sections[num]; !ok {
		return []string{fmt.Sprintf("%s: DESIGN.md has no §%s", at, num)}
	}
	if m[4] >= 0 && !c.items[num+"."+text[m[4]:m[5]]] {
		return []string{fmt.Sprintf("%s: DESIGN.md §%s has no item %s", at, num, text[m[4]:m[5]])}
	}
	return nil
}

// words checks a span of several words, or one fenced line: its test names,
// qualified names, repo paths and — when it runs the go command or one of
// the tree's programs, or starts with a flag — its flags.
func (c *citeChecker) words(at, s string) []string {
	out := c.testNames(at, s)
	out = append(out, c.chains(at, s)...)
	for _, seg := range cmdSepRE.Split(s, -1) {
		f := strings.Fields(seg)
		k := 0
		for k < len(f) && envRE.MatchString(f[k]) {
			k++
		}
		run := k < len(f) && (commands[path.Base(strings.Trim(f[k], `"'`))] || strings.HasPrefix(f[k], "-"))
		if run {
			for _, m := range flagRE.FindAllStringSubmatch(seg, -1) {
				out = append(out, c.flag(at, m[1])...)
			}
		}
		for _, w := range f {
			if w = strings.Trim(strings.TrimSuffix(w, "'s"), "\"'(),;:"); strings.Contains(w, "/") {
				out = append(out, c.path(at, w)...)
			}
		}
	}
	return out
}

// token checks a one-word span: a flag, a path, a file, a glob, a Go name
// or chain, or a snake_case key some string literal holds.
func (c *citeChecker) token(at, w string) []string {
	out := c.testNames(at, w)
	w = strings.TrimRight(strings.TrimLeft(w, "("), ".,;:)")
	if i := strings.IndexByte(w, '('); i > 0 {
		w = w[:i]
	}
	switch ext := w[strings.LastIndexByte(w, '.')+1:]; {
	case strings.HasPrefix(w, "-"):
		if name, _, _ := strings.Cut(w, "="); flagRE.MatchString(name) {
			out = append(out, c.flag(at, name)...)
		}
	case strings.Contains(w, "/"):
		out = append(out, c.path(at, w)...)
	case testRE.MatchString(w):
		// checked above
	case strings.Contains(w, "*"):
		pre, _, _ := strings.Cut(w, "*")
		if len(c.pkgs[strings.TrimSuffix(pre, ".")]) == 0 && !c.literal(pre, false) {
			out = append(out, fmt.Sprintf("%s: `%s` matches no string or name in the tree", at, w))
		}
	case fileExts[ext] && ext != w:
		if !c.files[w] && !c.literal(w, false) {
			out = append(out, fmt.Sprintf("%s: `%s` is no file of the repo and no string of the tree", at, w))
		}
	case snakeRE.MatchString(w):
		if !c.literal(w, true) {
			out = append(out, fmt.Sprintf("%s: `%s` is no string of the tree", at, w))
		}
	case chainRE.FindString(w) == w:
		out = append(out, c.chains(at, w)...)
	case goishRE.MatchString(w):
		if !c.decls[w] {
			out = append(out, fmt.Sprintf("%s: `%s` names nothing in the tree", at, w))
		}
	}
	return out
}

// testGlob reports whether a Test/Benchmark/Fuzz pattern with * matches.
func (c *citeChecker) testGlob(pat string) bool {
	for t := range c.tests {
		if ok, _ := path.Match(pat, t); ok {
			return true
		}
	}
	return false
}

// testNames checks every Test, Benchmark and Fuzz name in s.
func (c *citeChecker) testNames(at, s string) []string {
	var out []string
	for _, m := range testRE.FindAllStringSubmatch(s, -1) {
		if t := m[1]; !c.tests[t] && !(strings.Contains(t, "*") && c.testGlob(t)) {
			out = append(out, fmt.Sprintf("%s: no test function %s", at, t))
		}
	}
	return out
}

// chains checks every qualified name in s that has a Go-shaped element.
func (c *citeChecker) chains(at, s string) []string {
	var out []string
	for _, m := range chainRE.FindAllStringIndex(s, -1) {
		if m[0] > 0 && strings.ContainsAny(s[m[0]-1:m[0]], "._)]/-") || m[1] < len(s) && s[m[1]] == '/' {
			continue // inside a longer chain, a call's result or a path
		}
		parts := strings.Split(s[m[0]:m[1]], ".")
		if fileExts[parts[len(parts)-1]] || testRE.MatchString(" "+parts[0]) {
			continue
		}
		shaped := false
		for _, p := range parts {
			shaped = shaped || goishRE.MatchString(p)
		}
		if shaped && !c.resolve(parts) {
			out = append(out, fmt.Sprintf("%s: `%s` names nothing in the tree", at, s[m[0]:m[1]]))
		}
	}
	return out
}

// resolve walks a dotted chain (package, type or value, then members) through the type
// checker's objects. A head the tree only knows as a _test.go local (which
// is not type-checked) resolves by name.
func (c *citeChecker) resolve(parts []string) bool {
	var cur []any // *types.Package or types.Type
	for _, p := range c.pkgs[parts[0]] {
		cur = append(cur, p)
	}
	for _, ip := range c.imports[parts[0]] {
		if p := c.l.pkgs[ip]; p != nil {
			cur = append(cur, p)
		} else if p, err := c.l.std.Import(ip); err == nil {
			cur = append(cur, p)
		}
	}
	local := len(cur) == 0
	for _, o := range c.objs[parts[0]] {
		local = local && o.Parent() != nil && o.Parent() != o.Pkg().Scope()
		cur = append(cur, o.Type())
	}
	if c.testTypes[parts[0]][parts[1]] || local && c.testIdent[parts[0]] {
		return true
	}
	for _, name := range parts[1:] {
		var next []any
		for _, x := range cur {
			var o types.Object
			switch x := x.(type) {
			case *types.Package:
				o = x.Scope().Lookup(name)
			case types.Type:
				var pkg *types.Package
				t := types.Unalias(x)
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if n, ok := types.Unalias(t).(*types.Named); ok {
					pkg = n.Obj().Pkg()
				}
				o, _, _ = types.LookupFieldOrMethod(x, true, pkg, name)
			}
			if o != nil {
				next = append(next, o.Type())
			}
		}
		if cur = next; len(cur) == 0 {
			return false
		}
	}
	return true
}

// path checks a repo path: under a top-level directory, or under internal/
// when it starts with one of internal's packages. Anything else (a standard
// library path, a URL, /tmp) is not the tree's to answer for.
func (c *citeChecker) path(at, w string) []string {
	if strings.ContainsAny(w, "<>{}$") || strings.HasPrefix(w, "/") || strings.Contains(w, "://") {
		return nil
	}
	p := strings.TrimPrefix(strings.TrimPrefix(w, "./"), module+"/")
	p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
	if i := strings.LastIndexByte(p, ':'); i > 0 {
		if _, err := strconv.Atoi(p[i+1:]); err == nil {
			p = p[:i]
		}
	}
	top, _, _ := strings.Cut(p, "/")
	switch {
	case p == module || p == "." || p == "":
		return nil
	case top == "cmd" || top == "internal" || top == "examples" || top == "bench" || top == ".claude":
	case c.l.dirs[module+"/internal/"+top] != "" && strings.Contains(p, "/"):
		p = "internal/" + p
	default:
		return nil
	}
	if m, _ := filepath.Glob(filepath.Join(c.root, p)); len(m) == 0 {
		return []string{fmt.Sprintf("%s: `%s` is no path of the repo", at, w)}
	}
	return nil
}

// flag checks f against the mains' flag sets and the go command's.
func (c *citeChecker) flag(at, f string) []string {
	if c.flags[strings.TrimLeft(f, "-")] {
		return nil
	}
	return []string{fmt.Sprintf("%s: %s is a flag of no main and not of the go command", at, f)}
}

// literal reports whether some non-test string literal holds s (as a whole
// word when word is set).
func (c *citeChecker) literal(s string, word bool) bool {
	pat := regexp.QuoteMeta(s)
	if word {
		pat = `\b` + pat + `\b`
	}
	re := regexp.MustCompile(pat)
	for _, l := range c.strs {
		if re.MatchString(l) {
			return true
		}
	}
	return false
}

package haindex_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the documents whose references TestDocReferences resolves.
// benchmark/README.md is not among them yet: the benchmark's own text is
// rewritten by a benchmark-only change, which adds it here.
var checkedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// TestDocReferences holds the documents to the code they describe. In each
// checked document, a backticked pkg.Name or pkg.Type.Member (pkg one of the
// repository's packages, Name exported) must name a declaration of that
// package, test files included, with members promoted through embedded
// fields counted; a backticked internal/... or cmd/... path must exist; and a
// citation of a DESIGN.md section, written DESIGN.md followed by the
// section's title in parentheses and quotes, must name a DESIGN.md heading
// or bold paragraph lead, in the documents and in every Go comment of this
// module, where a mention of DESIGN.md must take that form. DESIGN.md's
// inventory has a row for every directory under internal/ and cmd/ and for
// the facade. A reference kept on purpose as history is followed by
// "(deleted in PR n)" and skipped. Every document must resolve at least one
// reference, so the check cannot pass by matching nothing.
func TestDocReferences(t *testing.T) {
	idx := loadGoIndex(t)
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	titles := designTitles(string(design))
	for _, doc := range checkedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		resolved, problems := idx.check(doc, string(text), titles)
		for _, p := range problems {
			t.Error(p)
		}
		t.Logf("%s: %d references resolved", doc, resolved)
		if resolved == 0 {
			t.Errorf("%s: no reference resolved", doc)
		}
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "doc_test.go" {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			text := cg.Text()
			if n := strings.Count(text, "DESIGN.md"); n != len(citation.FindAllString(text, -1)) {
				t.Errorf("%s: a comment mentions DESIGN.md without naming a section in parentheses and quotes", path)
			}
			for _, m := range citation.FindAllStringSubmatch(text, -1) {
				if title := strings.Join(strings.Fields(m[1]), " "); !titles[title] {
					t.Errorf("%s: DESIGN.md has no section %q", path, title)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	inventory := designSection(string(design), "System inventory")
	if inventory == "" {
		t.Fatal(`DESIGN.md has no "System inventory" section`)
	}
	dirs, err := filepath.Glob("internal/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"haindex": true}
	for _, file := range append(dirs, cmds...) {
		want[filepath.Dir(file)] = true
	}
	for _, span := range codeSpan.FindAllStringSubmatch(inventory, -1) {
		delete(want, span[1])
	}
	missing := make([]string, 0, len(want))
	for name := range want {
		missing = append(missing, name)
	}
	slices.Sort(missing)
	for _, name := range missing {
		t.Errorf("DESIGN.md: the inventory has no row for `%s`", name)
	}
}

// TestDocResolver runs the reference check over fixture packages, so a
// resolver that matched nothing, or everything, fails here.
func TestDocResolver(t *testing.T) {
	src := map[string]map[string]string{
		"alpha": {
			"a.go": `package alpha
import "haindex/internal/beta"
type Engine struct {
	*beta.Planner
	Name string
}
func (e *Engine) Search() {}
func Build() {}
const Limit = 3
`,
			"a_test.go": `package alpha_test
import "testing"
func TestGolden(t *testing.T) {}
func BenchmarkBuild(b *testing.B) {}
`,
		},
		"beta": {"b.go": `package beta
type Planner struct{ inner }
type inner struct{ Seed int }
func (p *Planner) Plan(h int) int { return h }
type Scanner interface{ Scan() }
`},
	}
	files := map[string][]*ast.File{}
	for pkg, byName := range src {
		for name, text := range byName {
			f, err := parser.ParseFile(token.NewFileSet(), name, text, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files[pkg] = append(files[pkg], f)
		}
	}
	idx := newGoIndex(files)
	titles := map[string]bool{"Known": true}
	cases := []struct {
		doc      string
		resolved int
		problems int
	}{
		{"`alpha.Build`, `alpha.Limit`", 2, 0},
		{"`alpha.Engine.Search` and `alpha.Engine.Name`", 2, 0},
		{"`alpha.Engine.Plan` through an embedded pointer", 1, 0},
		{"`alpha.Engine.Seed`, two embeddings down", 1, 0},
		{"`beta.(*Planner).Plan`, `(*beta.Planner).Plan`, `beta.Scanner.Scan`", 3, 0},
		{"`alpha.TestGolden` and `alpha.BenchmarkBuild`", 2, 0},
		{"`alpha.Removed`", 0, 1},
		{"`alpha.Engine.Version`", 0, 1},
		{"`alpha.Removed.Field`", 0, 1},
		{"`alpha.Removed` (deleted in PR 12)", 0, 0},
		{"`alpha.Engine.Version`\n(deleted in PR 7), then `alpha.Gone`", 0, 1},
		{"`alpha.search_ns`, `sort.Slice`, `Engine.Nothing`", 0, 0},
		{"`go test ./internal/core`, `cmd/haserve`, `internal/{mih,lsm}`", 4, 0},
		{"`internal/nosuch`", 0, 1},
		{`DESIGN.md ("Known"), DESIGN.md
("Gone")`, 1, 1},
		{"```\n`alpha.Gone` in a fenced block\n```", 0, 0},
	}
	for _, c := range cases {
		resolved, problems := idx.check("doc", c.doc, titles)
		if resolved != c.resolved || len(problems) != c.problems {
			t.Errorf("%q: %d resolved, problems %q; want %d resolved, %d problems",
				c.doc, resolved, problems, c.resolved, c.problems)
		}
	}
}

var (
	codeBlock = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```[^\n]*$")
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	// citation is a reference to a DESIGN.md section by its title.
	citation = regexp.MustCompile(`DESIGN\.md\s*\(\s*"([^"]+)"\s*\)`)
	deleted  = regexp.MustCompile(`^\s*\(deleted in PR \d+\)`)
	// receiver rewrites pkg.(*T).M and (*pkg.T).M as pkg.T.M.
	receiver  = regexp.MustCompile(`\b([a-z]\w*)\.\(\*(\w+)\)|\(\*([a-z]\w*)\.(\w+)\)`)
	qualified = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	repoPath  = regexp.MustCompile(`(?:^|[\s(=])(?:\./)?((?:internal|cmd)/[^\s)\x60;:'"]*)`)
	heading   = regexp.MustCompile(`(?m)^#+\s+(.+?)\s*$`)
	boldLead  = regexp.MustCompile(`(?m)^\s*(?:[-*]\s+|\d+\.\s+)?\*\*(.+?)\*\*`)
)

// goIndex holds the declarations of the repository's packages, keyed by
// package name (the directory's, or haindex for the root).
type goIndex map[string]*goPkg

type goPkg struct {
	names   map[string]bool            // top-level declarations
	members map[string]map[string]bool // a type's fields and methods
	embeds  map[string][]typeRef       // a type's embedded types
}

type typeRef struct{ pkg, name string }

// loadGoIndex parses the root package and every package under internal/.
func loadGoIndex(t *testing.T) goIndex {
	t.Helper()
	paths, err := filepath.Glob("internal/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]*ast.File{}
	for _, path := range append(paths, root...) {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(path))
		if pkg == "." {
			pkg = "haindex"
		}
		files[pkg] = append(files[pkg], f)
	}
	return newGoIndex(files)
}

// newGoIndex indexes parsed files by package name; an embedded type from
// another package is resolved through the file's import of it.
func newGoIndex(files map[string][]*ast.File) goIndex {
	idx := goIndex{}
	for pkg, pkgFiles := range files {
		p := &goPkg{names: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]typeRef{}}
		idx[pkg] = p
		for _, f := range pkgFiles {
			imports := map[string]string{}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				name := path[strings.LastIndex(path, "/")+1:]
				if imp.Name != nil {
					imports[imp.Name.Name] = name
				} else {
					imports[name] = name
				}
			}
			ref := func(e ast.Expr) (typeRef, bool) {
				for {
					switch x := e.(type) {
					case *ast.StarExpr:
						e = x.X
					case *ast.IndexExpr:
						e = x.X
					case *ast.IndexListExpr:
						e = x.X
					case *ast.Ident:
						return typeRef{pkg, x.Name}, true
					case *ast.SelectorExpr:
						if id, ok := x.X.(*ast.Ident); ok {
							return typeRef{imports[id.Name], x.Sel.Name}, true
						}
						return typeRef{}, false
					default:
						return typeRef{}, false
					}
				}
			}
			member := func(typ, name string) {
				if p.members[typ] == nil {
					p.members[typ] = map[string]bool{}
				}
				p.members[typ][name] = true
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						p.names[d.Name.Name] = true
					} else if r, ok := ref(d.Recv.List[0].Type); ok {
						member(r.name, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range s.Names {
								p.names[n.Name] = true
							}
						case *ast.TypeSpec:
							typ := s.Name.Name
							p.names[typ] = true
							var fields []*ast.Field
							switch tt := s.Type.(type) {
							case *ast.StructType:
								fields = tt.Fields.List
							case *ast.InterfaceType:
								fields = tt.Methods.List
							default:
								if r, ok := ref(tt); ok {
									p.embeds[typ] = append(p.embeds[typ], r)
								}
							}
							for _, field := range fields {
								for _, n := range field.Names {
									member(typ, n.Name)
								}
								if len(field.Names) == 0 {
									if r, ok := ref(field.Type); ok {
										p.embeds[typ] = append(p.embeds[typ], r)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return idx
}

// hasMember reports whether typ in pkg has the field or method name, its
// own or promoted through an embedded field.
func (idx goIndex) hasMember(pkg, typ, name string, depth int) bool {
	p := idx[pkg]
	if p == nil || depth > 8 {
		return false
	}
	if p.members[typ][name] {
		return true
	}
	for _, e := range p.embeds[typ] {
		if idx.hasMember(e.pkg, e.name, name, depth+1) {
			return true
		}
	}
	return false
}

// check resolves every reference in one document and returns how many
// resolved and a line for each that did not.
func (idx goIndex) check(doc, text string, titles map[string]bool) (resolved int, problems []string) {
	text = codeBlock.ReplaceAllStringFunc(text, func(block string) string {
		return strings.Repeat("\n", strings.Count(block, "\n"))
	})
	line := func(off int) int { return 1 + strings.Count(text[:off], "\n") }
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		if deleted.MatchString(text[m[1]:]) {
			continue
		}
		span := receiver.ReplaceAllString(text[m[2]:m[3]], "$1$3.$2$4")
		for _, r := range qualified.FindAllStringSubmatch(span, -1) {
			pkg, name, member := r[1], r[2], r[3]
			if idx[pkg] == nil {
				continue
			}
			ok := idx[pkg].names[name]
			if ok && member != "" {
				ok = idx.hasMember(pkg, name, member, 0)
			}
			if !ok {
				ref := pkg + "." + name
				if member != "" {
					ref += "." + member
				}
				problems = append(problems, doc+":"+strconv.Itoa(line(m[0]))+": `"+ref+"` does not resolve")
				continue
			}
			resolved++
		}
		for _, r := range repoPath.FindAllStringSubmatch(span, -1) {
			for _, path := range expandBraces(strings.TrimSuffix(strings.TrimRight(r[1], ".,"), "/...")) {
				if strings.Contains(path, "<") {
					continue
				}
				found, _ := filepath.Glob(path)
				if len(found) == 0 {
					problems = append(problems, doc+":"+strconv.Itoa(line(m[0]))+": `"+path+"` does not exist")
					continue
				}
				resolved++
			}
		}
	}
	for _, m := range citation.FindAllStringSubmatchIndex(text, -1) {
		if title := strings.Join(strings.Fields(text[m[2]:m[3]]), " "); !titles[title] {
			problems = append(problems, doc+":"+strconv.Itoa(line(m[0]))+": DESIGN.md has no section "+strconv.Quote(title))
			continue
		}
		resolved++
	}
	return resolved, problems
}

// expandBraces expands one {a,b} group: internal/{mih,lsm} is two paths.
func expandBraces(path string) []string {
	open, end := strings.Index(path, "{"), strings.Index(path, "}")
	if open < 0 || end < open {
		return []string{path}
	}
	var out []string
	for _, alt := range strings.Split(path[open+1:end], ",") {
		out = append(out, path[:open]+alt+path[end+1:])
	}
	return out
}

// designTitles lists what a citation may name: every heading of DESIGN.md
// and every bold lead that opens a paragraph or list item, without its
// closing punctuation and with or without a closing parenthetical.
func designTitles(design string) map[string]bool {
	titles := map[string]bool{}
	for _, re := range []*regexp.Regexp{heading, boldLead} {
		for _, m := range re.FindAllStringSubmatch(design, -1) {
			title := strings.Join(strings.Fields(strings.TrimRight(m[1], ".:")), " ")
			titles[title] = true
			if i := strings.Index(title, " ("); i > 0 {
				titles[title[:i]] = true
			}
		}
	}
	return titles
}

// designSection returns the text under the ## heading title, up to the next
// ## heading.
func designSection(design, title string) string {
	start := strings.Index(design, "\n## "+title+"\n")
	if start < 0 {
		return ""
	}
	rest := design[start+1:]
	if end := strings.Index(rest[1:], "\n## "); end >= 0 {
		return rest[:end+1]
	}
	return rest
}

package dbdedup

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The documents whose cited names must exist: a design fact points at the
// test that pins it, and a pointer to a deleted name points at nothing.
var citingDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"}

var (
	testName   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	dottedName = regexp.MustCompile(`\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	// A cross-reference may break its line, in a comment, between the
	// document's name and the section sign.
	designRef = regexp.MustCompile(`DESIGN\.md\s+(?:(?://|#)\s*)?§(\d+)`)
	expRef    = regexp.MustCompile(`EXPERIMENTS\.md\s+(?:(?://|#)\s*)?§"([^"]+)"`)
	heading   = regexp.MustCompile(`(?m)^#+ +(.+)$`)
)

// fileSuffixes are the last components of a dotted token that name a file,
// as in `node.go`, not a declaration.
var fileSuffixes = map[string]bool{"go": true, "md": true, "json": true,
	"csv": true, "yml": true, "sh": true, "txt": true, "mod": true}

// TestDocsNameWhatExists holds the documents to the code. Every test, fuzz
// target or benchmark they cite (Name/sub cites Name; a Name* prefix must
// match one), and every pkg.Name or Type.Name whose qualifier is one of this
// module's packages or types, must be declared in the module; and every
// reference to a section of the design document (by number) or of the
// experiments record (by a quoted prefix of its title), in the documents, the
// Go comments and CI, must name a heading that exists.
func TestDocsNameWhatExists(t *testing.T) {
	m := loadModule(t)
	for _, doc := range citingDocs {
		text := readDoc(t, doc)
		t.Run(doc, func(t *testing.T) {
			for _, bad := range m.missingNames(text) {
				t.Errorf("%s cites %s, which this module does not declare", doc, bad)
			}
		})
	}
	t.Run("CrossReferences", func(t *testing.T) {
		sections := map[string]bool{}
		for _, h := range heading.FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
			if n, _, ok := strings.Cut(h[1], ". "); ok {
				if _, err := strconv.Atoi(n); err == nil {
					sections[n] = true
				}
			}
		}
		var expHeadings []string
		for _, h := range heading.FindAllStringSubmatch(readDoc(t, "EXPERIMENTS.md"), -1) {
			expHeadings = append(expHeadings, h[1])
		}
		files := append([]string{"ROADMAP.md", ".github/workflows/ci.yml"}, citingDocs...)
		files = append(files, m.goFiles...)
		for _, f := range files {
			text := readDoc(t, f)
			for _, r := range designRef.FindAllStringSubmatch(text, -1) {
				if !sections[r[1]] {
					t.Errorf("%s cites DESIGN.md §%s, which has no such section", f, r[1])
				}
			}
		next:
			for _, r := range expRef.FindAllStringSubmatch(text, -1) {
				title := strings.Join(strings.Fields(r[1]), " ")
				for _, h := range expHeadings {
					if strings.HasPrefix(h, title) {
						continue next
					}
				}
				t.Errorf("%s cites EXPERIMENTS.md §%q, which no heading begins with", f, title)
			}
		}
	})
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// module is what this module declares, by name.
type module struct {
	goFiles []string
	funcs   map[string]bool            // top-level functions of every package
	pkgs    map[string]map[string]bool // package name → its names and its types' members
	// types maps a type name to its fields and methods, over every type of
	// that name (an inline struct's fields count under the field's name);
	// embeds to the types it embeds, whose members it promotes; fieldTypes
	// a field name to its types, so that Stats.Engine.Inserts may be cited
	// as Engine.Inserts.
	types      map[string]map[string]bool
	embeds     map[string][]string
	fieldTypes map[string][]string
}

// loadModule parses every Go file of the module rooted here, skipping hidden
// directories, testdata and nested modules.
func loadModule(t *testing.T) *module {
	t.Helper()
	m := &module{funcs: map[string]bool{}, pkgs: map[string]map[string]bool{},
		types: map[string]map[string]bool{}, embeds: map[string][]string{},
		fieldTypes: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.goFiles = append(m.goFiles, path)
		m.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *module) add(f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if m.pkgs[pkg] == nil {
		m.pkgs[pkg] = map[string]bool{}
	}
	top := m.pkgs[pkg]
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top[d.Name.Name] = true
				m.funcs[d.Name.Name] = true
			} else if r := typeName(d.Recv.List[0].Type); r != "" {
				m.member(r)[d.Name.Name] = true
				top[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					top[s.Name.Name] = true
					for name := range m.addType(s.Name.Name, s.Type) {
						top[name] = true
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top[n.Name] = true
					}
				}
			}
		}
	}
}

func (m *module) member(typ string) map[string]bool {
	if m.types[typ] == nil {
		m.types[typ] = map[string]bool{}
	}
	return m.types[typ]
}

func (m *module) addType(name string, typ ast.Expr) map[string]bool {
	members := m.member(name)
	var fields *ast.FieldList
	switch typ := typ.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		return nil
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			if e := typeName(f.Type); e != "" {
				members[e] = true
				m.embeds[name] = append(m.embeds[name], e)
			}
		}
		for _, n := range f.Names {
			members[n.Name] = true
			if _, inline := f.Type.(*ast.StructType); inline {
				m.addType(n.Name, f.Type)
			} else if ft := typeName(f.Type); ft != "" {
				m.fieldTypes[n.Name] = append(m.fieldTypes[n.Name], ft)
			}
		}
	}
	return members
}

// typeName is the bare name of a receiver or embedded type expression.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}

// hasMember reports whether a type of that name has the field or method,
// its own or promoted from an embedded type.
func (m *module) hasMember(typ, name string, depth int) bool {
	if m.types[typ][name] {
		return true
	}
	if depth > 4 {
		return false
	}
	for _, e := range m.embeds[typ] {
		if m.hasMember(e, name, depth+1) {
			return true
		}
	}
	return false
}

// missingNames returns the names text cites that the module does not declare.
func (m *module) missingNames(text string) []string {
	var bad []string
	for _, name := range testName.FindAllString(text, -1) {
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			if !m.hasFuncPrefix(prefix) {
				bad = append(bad, name)
			}
		} else if !m.funcs[name] {
			bad = append(bad, name)
		}
	}
	for _, tok := range dottedName.FindAllString(text, -1) {
		parts := strings.Split(tok, ".")
		if fileSuffixes[parts[len(parts)-1]] {
			continue
		}
		if !m.resolves(parts) {
			bad = append(bad, tok)
		}
	}
	return bad
}

func (m *module) hasFuncPrefix(prefix string) bool {
	for f := range m.funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// resolves reports whether a dotted token names something declared, as far
// as its qualifier is one of this module's packages or types: pkg.Name must
// be a name, or a member of a type, declared in the package; pkg.Type.Name and
// Type.Name a field or method of the type. A token whose first part is
// neither, or whose name is a snake_case metric, is not a citation.
func (m *module) resolves(parts []string) bool {
	if top, ok := m.pkgs[parts[0]]; ok && parts[0] != "main" {
		if !top[parts[1]] && !isMetric(parts[1]) {
			return false
		}
		parts = parts[1:]
	}
	if _, ok := m.types[parts[0]]; !ok || len(parts) < 2 || isMetric(parts[1]) {
		return true
	}
	if m.hasMember(parts[0], parts[1], 0) {
		return true
	}
	for _, ft := range m.fieldTypes[parts[0]] {
		if m.hasMember(ft, parts[1], 0) {
			return true
		}
	}
	return false
}

func isMetric(name string) bool {
	return strings.Contains(name, "_") && strings.ToLower(name) == name
}

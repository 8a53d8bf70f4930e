package rumba

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// codeSpan is one inline code span; fenced blocks are blanked first.
	codeSpan = regexp.MustCompile("`[^`]+`")
	// docRef is a reference to an exported declaration of a package, with
	// an optional member after it: core.Stream, core.Stream.ProcessSlice.
	docRef = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z]\w*))?`)
)

// decls is what one package declares outside its tests: its top-level
// names (with the methods and fields of its types, which the docs also
// write as pkg.Method), and the methods and fields of each of its types.
type decls struct {
	names   map[string]bool
	members map[string]map[string]bool
}

func (d *decls) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
	d.names[name] = true
}

// parseDecls parses the non-test Go files of dir with go/parser.
func parseDecls(t *testing.T, dir string) *decls {
	t.Helper()
	d := &decls{names: map[string]bool{}, members: map[string]map[string]bool{}}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.names[decl.Name.Name] = true
				} else {
					d.member(receiverType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						d.names[spec.Name.Name] = true
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields != nil {
							for _, field := range fields.List {
								for _, name := range field.Names {
									d.member(spec.Name.Name, name.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							d.names[name.Name] = true
						}
					}
				}
			}
		}
	}
	return d
}

// receiverType names a method's receiver type: T for T, *T, T[K] and *T[K].
func receiverType(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// blankFences replaces the lines of fenced code blocks with empty lines, so
// that line numbers survive and their backticks pair with nothing.
func blankFences(doc string) string {
	lines := strings.Split(doc, "\n")
	in := false
	for i, line := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(line), "```")
		if in || fence {
			lines[i] = ""
		}
		if fence {
			in = !in
		}
	}
	return strings.Join(lines, "\n")
}

// TestDocsNameRealDeclarations resolves every backticked pkg.Name in
// DESIGN.md and README.md whose pkg is a directory under internal/, and a
// .Member after it, against that package's declarations, so that a rename
// or a deletion cannot leave the docs naming code that is not there.
func TestDocsNameRealDeclarations(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*decls{}
	for _, dir := range dirs {
		if dir.IsDir() {
			pkgs[dir.Name()] = nil // parsed on first reference
		}
	}
	checked := 0
	for _, name := range []string{"DESIGN.md", "README.md"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		doc := blankFences(string(data))
		for _, span := range codeSpan.FindAllStringIndex(doc, -1) {
			line := 1 + strings.Count(doc[:span[0]], "\n")
			for _, m := range docRef.FindAllStringSubmatch(doc[span[0]:span[1]], -1) {
				d, ok := pkgs[m[1]]
				if !ok {
					continue
				}
				if d == nil {
					d = parseDecls(t, filepath.Join("internal", m[1]))
					pkgs[m[1]] = d
				}
				checked++
				switch {
				case !d.names[m[2]]:
					t.Errorf("%s:%d: `%s`: internal/%s declares no %s", name, line, m[0], m[1], m[2])
				case m[3] != "" && !d.members[m[2]][m[3]]:
					t.Errorf("%s:%d: `%s`: %s.%s has no method or field %s", name, line, m[0], m[1], m[2], m[3])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no pkg.Name reference to check")
	}
}

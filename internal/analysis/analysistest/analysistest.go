// Package analysistest runs an analyzer over packages laid out under a
// testdata/src directory and checks its diagnostics against // want
// comments, mirroring golang.org/x/tools/go/analysis/analysistest closely
// enough that the suites read identically.
//
// Layout: testdata/src/<pkg>/*.go is one package, imported by its
// directory name (GOPATH-style). A testdata package may import a sibling
// testdata package (a package of shared stub types) or
// anything in the standard library; the loader source-checks siblings and
// resolves std imports from compiled export data.
//
// Expectations: a comment `// want "regexp"` (one or more space-separated
// quoted or backquoted regexps) on a line means each regexp must match a
// distinct diagnostic reported on that line; lines without a want comment
// must produce no diagnostics.
package analysistest

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/optik-go/optik/internal/analysis"
)

// Run loads each named package from dir/testdata/src and reports any
// mismatch between a's diagnostics and the packages' want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l := newLoader(t, filepath.Join(dir, "testdata", "src"))
	for _, name := range pkgs {
		pkg := l.load(name)
		diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s over %s: %v", a.Name, name, err)
		}
		checkWants(t, pkg, diags)
	}
}

// loader resolves testdata-sibling imports from source and everything else
// from the module's export-data closure.
type loader struct {
	t       *testing.T
	src     string
	fset    *token.FileSet
	exports map[string]string
	loaded  map[string]*analysis.Package
}

func newLoader(t *testing.T, src string) *loader {
	return &loader{
		t:      t,
		src:    src,
		fset:   token.NewFileSet(),
		loaded: map[string]*analysis.Package{},
	}
}

// Import implements types.Importer over testdata siblings + export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.loaded[path]; ok {
		return p.Types, nil
	}
	if fi, err := os.Stat(filepath.Join(l.src, path)); err == nil && fi.IsDir() {
		return l.load(path).Types, nil
	}
	if l.exports == nil {
		// One go list over the module's full dependency closure covers
		// every std package the testdata can reasonably import.
		root := moduleRoot(l.t)
		pkgs, err := listExports(root)
		if err != nil {
			l.t.Fatalf("listing export data: %v", err)
		}
		l.exports = pkgs
	}
	imp := analysis.ExportImporter(l.fset, func(p string) (string, bool) {
		f, ok := l.exports[p]
		return f, ok
	})
	return imp.Import(path)
}

func (l *loader) load(name string) *analysis.Package {
	if p, ok := l.loaded[name]; ok {
		return p
	}
	dir := filepath.Join(l.src, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatalf("reading testdata package %s: %v", name, err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	pkg, err := analysis.CheckPackage(l.fset, name, files, l)
	if err != nil {
		l.t.Fatalf("loading testdata package %s: %v", name, err)
	}
	l.loaded[name] = pkg
	return pkg
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

func listExports(root string) (map[string]string, error) {
	pkgs, err := analysis.ListExportData(root, "./...")
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// wantRx extracts the quoted regexps of a want comment.
var wantRx = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// checkWants diffs diagnostics against the package's want comments.
func checkWants(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], rx)
				}
			}
		}
	}
	unmatched := map[key][]*regexp.Regexp{}
	for k, v := range wants {
		unmatched[k] = append([]*regexp.Regexp(nil), v...)
	}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		rxs := unmatched[k]
		found := -1
		for i, rx := range rxs {
			if rx.MatchString(d.Message) {
				found = i
				break
			}
		}
		if found < 0 {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
			continue
		}
		unmatched[k] = append(rxs[:found], rxs[found+1:]...)
	}
	var keys []key
	for k, rxs := range unmatched {
		if len(rxs) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, rx := range unmatched[k] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, rx)
		}
	}
}

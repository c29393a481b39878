package analysis

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest on the stdlib-only
// framework: every fixture package under testdata/<analyzer>/src is
// loaded and analyzed, and each diagnostic must be announced by a
//
//	// want `regex`
//
// comment on the flagged line (double quotes work too). Unmatched
// diagnostics and unsatisfied wants both fail the test.

func testAnalyzer(t *testing.T, a *Analyzer, pkgPaths ...string) {
	t.Helper()
	root := filepath.Join("testdata", a.Name, "src")
	loader := NewLoader(func(path string) (string, bool) {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
		return "", false
	})
	for _, p := range pkgPaths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", p, err)
		}
		checkExpectations(t, pkg, RunAnalyzers(pkg, []*Analyzer{a}))
	}
}

func checkExpectations(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, pat := range splitWants(rest) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		matched := false
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s: no diagnostic matching %q", key, re)
		}
	}
}

// splitWants extracts the backquote- or double-quote-delimited patterns
// from the remainder of a want comment (no escape processing: fixture
// regexes are written verbatim).
func splitWants(s string) []string {
	var pats []string
	for {
		s = strings.TrimSpace(s)
		if len(s) == 0 {
			return pats
		}
		delim := s[0]
		if delim != '`' && delim != '"' {
			return pats
		}
		end := strings.IndexByte(s[1:], delim)
		if end < 0 {
			return pats
		}
		pats = append(pats, s[1:1+end])
		s = s[2+end:]
	}
}

func TestProtodeterminism(t *testing.T) {
	testAnalyzer(t, Protodeterminism, "a")
}

func TestIDBoundary(t *testing.T) {
	testAnalyzer(t, IDBoundary, "deltacolor/local")
}

func TestHotPathAlloc(t *testing.T) {
	testAnalyzer(t, HotPathAlloc, "a")
}

func TestSpanPair(t *testing.T) {
	testAnalyzer(t, SpanPair, "a", "deltacolor/local")
}

// TestWaivers pins the waiver contract: a reasoned //lint:ignore silences
// the named analyzer's finding on that line, and a reason-less waiver is
// itself reported.
func TestWaivers(t *testing.T) {
	dir := t.TempDir()
	src := `package w

import "os"

//deltacolor:protocol
func waived() string {
	//lint:ignore protodeterminism fixture: reading the environment here is a deliberate test double
	return os.Getenv("HOME")
}

//deltacolor:protocol
func reasonless() string {
	//lint:ignore protodeterminism
	return os.Getenv("HOME")
}
`
	if err := os.WriteFile(filepath.Join(dir, "w.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(func(path string) (string, bool) {
		if path == "w" {
			return dir, true
		}
		return "", false
	})
	pkg, err := loader.Load("w")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{Protodeterminism})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 (the reason-less waiver): %+v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "waiver without a reason") {
		t.Fatalf("diagnostic = %q, want the reason-less waiver report", diags[0].Message)
	}
}

// TestLintCleanOnRepo is the library form of the CI gate: running every
// analyzer over every package of the module must produce no findings
// (the cmd/lint binary exits 0 exactly when this holds).
func TestLintCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; run without -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := ReadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := PackagesUnder(root, root, modPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("found only %d packages under %s, expected the whole module", len(paths), root)
	}
	loader := NewLoader(ModuleResolver(modPath, root))
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Errorf("loading %s: %v", p, err)
			continue
		}
		for _, d := range RunAnalyzers(pkg, All()) {
			t.Errorf("%s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}

// TestAnalyzerTablesNameRuntimeFields keeps the analyzers' field tables
// honest: every name idboundary and spanpair guard must be a field of a
// struct declared in deltacolor/local, or the entry silently guards
// nothing (a renamed lane or counter would otherwise drop out of the
// checks without a sound).
func TestAnalyzerTablesNameRuntimeFields(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := ReadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader(ModuleResolver(modPath, root)).Load(modPath + "/local")
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		st, ok := scope.Lookup(name).Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i).Name()] = true
		}
	}
	for table, keys := range map[string]map[string]bool{
		"internalTables":     internalTables,
		"intValueTables":     intValueTables,
		"batchCounterFields": batchCounterFields,
		"tracerStateFields":  tracerStateFields,
	} {
		for key := range keys {
			if !fields[key] {
				t.Errorf("%s names %q, which is no field of a struct in %s/local", table, key, modPath)
			}
		}
	}
}

package probablecause_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestPackageComments is the docs lint: every package under internal/ and
// cmd/ must carry a package (godoc) comment. The architecture documents
// lean on those comments being present and current; a package without one
// is invisible to `go doc` and to the next reader.
func TestPackageComments(t *testing.T) {
	roots := []string{"internal", "cmd"}
	var missing []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() || strings.HasPrefix(d.Name(), ".") {
				return err
			}
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, path, func(fi os.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				return err
			}
			for name, pkg := range pkgs {
				documented := false
				for _, f := range pkg.Files {
					if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
						documented = true
						break
					}
				}
				if !documented {
					missing = append(missing, path+" (package "+name+")")
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("package missing a package comment: %s", m)
	}
}

// TestFileComments tightens the lint for the packages that grew past a
// handful of files: every non-test source file in internal/cluster and
// internal/store must open with a file-top comment saying what lives in
// it. The package comment alone stopped being a map once these packages
// split across replication, routing, partitioning, and storage tiers.
func TestFileComments(t *testing.T) {
	for _, dir := range []string{
		filepath.Join("internal", "cluster"),
		filepath.Join("internal", "store"),
	} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatal(err)
			}
			if f.Doc == nil || strings.TrimSpace(f.Doc.Text()) == "" {
				t.Errorf("%s: missing a file-top comment above the package clause", path)
			}
		}
	}
}

// docFlagToken matches a backticked flag mention in a markdown doc:
// `-wal.dir`, `-repl.min-isr N`, `-mode=follower`. The captured group is
// the flag name alone.
var docFlagToken = regexp.MustCompile("`-([a-z][a-z0-9.-]*[a-z0-9])(?:[=* ][^`]*)?`")

// goFlagReg matches a flag registration in Go source: fs.String("name",
// or fs.BoolVar(&opt, "name", in any of the stdlib flag kinds.
var goFlagReg = regexp.MustCompile(`\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)(?:Var)?\((?:&[\w.\[\]]+,\s*)?"([a-z][a-z0-9.-]*)"`)

// TestFlagDocDrift is the grep-based doc-drift lint: every flag the
// operator docs and the README mention must still be registered by a
// binary. Removing or renaming a flag without updating OPERATIONS.md,
// CLUSTER.md or README.md fails here, not in an operator's incident.
// DESIGN.md, EXPERIMENTS.md and ARCHITECTURE.md stay out: they backtick
// tokens that are not flags (test and experiment options).
func TestFlagDocDrift(t *testing.T) {
	registered := map[string]bool{}
	sources, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, filepath.Join("internal", "obs", "flags.go"))
	for _, src := range sources {
		blob, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goFlagReg.FindAllStringSubmatch(string(blob), -1) {
			registered[m[1]] = true
		}
	}
	if len(registered) < 20 {
		t.Fatalf("found only %d registered flags — the registration regexp has drifted", len(registered))
	}
	// Doc tokens that are deliberately not single flag names.
	exceptions := map[string]bool{
		"obs.": true, // the `-obs.*` family shorthand
		"race": true, // the go test flag, mentioned when citing test evidence
	}
	for _, doc := range []string{"OPERATIONS.md", "CLUSTER.md", "README.md"} {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docFlagToken.FindAllStringSubmatch(string(blob), -1) {
			name := m[1]
			if registered[name] || exceptions[name] || registered[strings.TrimSuffix(name, ".")] {
				continue
			}
			t.Errorf("%s documents flag -%s, which no binary registers", doc, name)
		}
	}
}

// TestDocsExist keeps the documentation set itself from silently
// disappearing: these files are cross-linked from the README and from each
// other, and CI regenerates nothing — a dangling link is a broken doc.
func TestDocsExist(t *testing.T) {
	for _, name := range []string{
		"README.md", "ARCHITECTURE.md", "OPERATIONS.md", "DESIGN.md", "EXPERIMENTS.md", "CLUSTER.md",
	} {
		st, err := os.Stat(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

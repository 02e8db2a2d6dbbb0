package invisiblebits_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents that describe the system as it is. The
// change logs (CHANGES.md, ROADMAP.md) are history and may name what is
// gone.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// treeFuncs returns the top-level function names of every Go file in
// the tree, by package directory ("." for the root package).
func treeFuncs(t *testing.T) map[string][]string {
	t.Helper()
	funcs := make(map[string][]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		dir := filepath.Dir(path)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[dir] = append(funcs[dir], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// TestDocNamesResolve is the drift gate between the documents, CI and
// the code. It fails on
//
//   - a Test*, Benchmark* or Fuzz* name in docFiles that is neither a
//     function in the tree nor a prefix of one (so patterns such as
//     BenchmarkFig1 pass);
//   - an internal/… path in docFiles that does not exist, after brace
//     lists are expanded and internal/pkg.Ident is resolved to the
//     package;
//   - an alternative of a -run, -bench or -fuzz pattern in the CI
//     workflow that matches no top-level function of the packages its
//     go test command names.
func TestDocNamesResolve(t *testing.T) {
	funcs := treeFuncs(t)
	var all []string
	for _, names := range funcs {
		all = append(all, names...)
	}
	docs := make(map[string]string)
	for _, f := range docFiles {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		docs[f] = string(b)
	}

	// TestEquity is a maker of environmental chambers.
	names := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	paths := regexp.MustCompile(`internal/[\w./{},*-]*[\w/}*]`)
	for _, f := range docFiles {
		t.Run(filepath.Base(f), func(t *testing.T) {
			t.Run("test names", func(t *testing.T) {
				for _, name := range names.FindAllString(docs[f], -1) {
					if name != "TestEquity" && !hasPrefixed(all, name) {
						t.Errorf("%s names %s, which no function in the tree is or starts with", f, name)
					}
				}
			})
			t.Run("internal paths", func(t *testing.T) {
				for _, p := range paths.FindAllString(docs[f], -1) {
					for _, q := range expandBraces(p) {
						if !pathExists(q) {
							t.Errorf("%s names %s, which does not exist", f, q)
						}
					}
				}
			})
		})
	}

	t.Run("ci patterns", func(t *testing.T) {
		b, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			_, cmd, ok := strings.Cut(line, "go test ")
			if !ok {
				continue
			}
			cmd, _, _ = strings.Cut(cmd, "&&")
			args := shellWords(cmd)
			var pkgs []string
			for _, a := range args {
				if a == "." || strings.HasPrefix(a, "./") {
					pkgs = append(pkgs, a)
				}
			}
			for i := 0; i+1 < len(args); i++ {
				kinds, ok := map[string][]string{
					"-run":   {"Test", "Fuzz", "Example"},
					"-bench": {"Benchmark"},
					"-fuzz":  {"Fuzz"},
				}[args[i]]
				if !ok || args[i+1] == "^$" {
					continue
				}
				for _, alt := range strings.Split(args[i+1], "|") {
					re, err := regexp.Compile(strings.Split(alt, "/")[0])
					if err != nil {
						t.Errorf("ci.yml: %q: %v", alt, err)
						continue
					}
					if !pkgsMatch(funcs, pkgs, kinds, re) {
						t.Errorf("ci.yml: %s alternative %q matches no function of %v:\n%s", args[i], alt, pkgs, strings.TrimSpace(line))
					}
				}
			}
		}
	})
}

// hasPrefixed reports whether some name starts with prefix.
func hasPrefixed(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// expandBraces expands every {a,b} list in p.
func expandBraces(p string) []string {
	open := strings.IndexByte(p, '{')
	end := strings.IndexByte(p, '}')
	if open < 0 || end < open {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[open+1:end], ",") {
		out = append(out, expandBraces(p[:open]+alt+p[end+1:])...)
	}
	return out
}

// pathExists reports whether p names a file or directory of the tree,
// as a glob, or as pkg.Ident, which names the package.
func pathExists(p string) bool {
	if m, _ := filepath.Glob(filepath.FromSlash(p)); len(m) > 0 {
		return true
	}
	dir, last := filepath.Split(p)
	if pkg, _, ok := strings.Cut(last, "."); ok {
		if st, err := os.Stat(filepath.FromSlash(dir + pkg)); err == nil && st.IsDir() {
			return true
		}
	}
	return false
}

// pkgsMatch reports whether re matches a function of one of the kinds
// (name prefixes) in one of the packages; "./..." means every package.
func pkgsMatch(funcs map[string][]string, pkgs, kinds []string, re *regexp.Regexp) bool {
	for _, pkg := range pkgs {
		for dir, names := range funcs {
			if pkg != "./..." && dir != filepath.Clean(pkg) {
				continue
			}
			for _, n := range names {
				for _, k := range kinds {
					if strings.HasPrefix(n, k) && re.MatchString(n) {
						return true
					}
				}
			}
		}
	}
	return false
}

// shellWords splits a command line into words, honouring single quotes.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	inWord, quoted := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted = !quoted
			inWord = true
		case (r == ' ' || r == '\t') && !quoted:
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

package invisiblebits_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceKept lists the internal declarations that no non-test file
// uses and that stay on purpose, keyed internal/<pkg>.<Recv>.<Name> for
// a method and internal/<pkg>.<Name> for a function, type, constant or
// variable, each with its reason. DESIGN §5h, "What the code exports",
// groups them into the same five classes.
var surfaceKept = map[string]string{
	// Interface methods: the standard library calls them.
	"internal/sched.discardHandler.Enabled":   "slog.Handler",
	"internal/sched.discardHandler.Handle":    "slog.Handler",
	"internal/sched.discardHandler.WithAttrs": "slog.Handler",
	"internal/sched.discardHandler.WithGroup": "slog.Handler",
	"internal/cpu.Fault.Unwrap":               "errors.Is/As unwrap a CPU fault to its cause",
	"internal/faults.classified.Is":           "errors.Is matches a classified error to its class",
	"internal/sched.APIError.Is":              "errors.Is matches an API error to its sentinel",
	"internal/sched.SlotPanicError.Is":        "errors.Is matches a contained slot panic",

	// Harnesses that other packages' tests import.
	"internal/storage.NewFaultFS":             "lying-disk harness of the campaign, sched and fsck tests",
	"internal/storage.FaultFS.FailNth":        "lying-disk harness: fail the nth operation",
	"internal/storage.FaultFS.SetSpaceBudget": "lying-disk harness: ENOSPC after a byte budget",
	"internal/storage.FaultFS.Crashes":        "lying-disk harness: count of simulated crashes",
	"internal/storage.FaultFS.Crash":          "lying-disk harness: drop unsynced writes",
	"internal/faults.NewHTTPChaos":            "lossy-network harness of the sched service tests",
	"internal/faults.HTTPChaos.KillListener":  "lossy-network harness: kill the server's listener",
	"internal/faults.HTTPChaos.Transport":     "lossy-network harness: the client's round tripper",
	"internal/faults.KillSwitch.Hits":         "kill-point harness: how many kill points a run passed",

	// Oracles that other engines are held to.
	"internal/rng.Stream.NormZig":       "per-cell sampler that sram's reference engine compares against",
	"internal/analog.Params.ShiftAfter": "closed-form power law that GrowShift and the device tests are held to",
	"internal/analog.Params.GrowShift":  "per-cell effective-time aging that sram's reference engine runs",

	// Assembly test hooks: they must sit beside the .s file (one
	// declaration there, one in the portable build).
	"internal/rng.sinAVX512": "TestSynthKernelsMatchMath holds the vector sin to math.Sin",
	"internal/rng.cosAVX512": "TestSynthKernelsMatchMath holds the vector cos to math.Cos",
	"internal/rng.logAVX512": "TestSynthKernelsMatchMath holds the vector log to math.Log",

	// State views that the pins read.
	"internal/sram.Array.StateSnapshot":   "per-cell state that the device, standalone and aging pins hash",
	"internal/sram.Array.PowerOnCount":    "power-on counter that the aging pins hash",
	"internal/sram.Array.Bias":            "bias plane that the device and aging pins hash",
	"internal/sram.Array.EquivalentTimes": "equivalent stress times that the aging pins hash",
}

// surfaceDecl is one package-level function, method, type, constant or
// variable declared in a non-test file of internal/.
type surfaceDecl struct {
	dir, recv, name string
	pos             token.Position
}

// surfaceUse is a name that some non-test file uses: a function, type,
// constant or variable of the package in dir, or a method selected in
// dir. An exported method is also recorded under dir "", since any
// package may select it.
type surfaceUse struct {
	dir, name string
	method    bool
}

// TestInternalSurfaceHasCallers is the dead-code gate of internal/: every
// package-level function, method, type, constant and variable that a
// non-test file declares there must be named by some non-test file, or
// be kept in surfaceKept with a reason. The rule is by name, so it runs
// offline with the standard library only:
//
//   - a function, type, constant or variable counts as used when a
//     non-test file names it (pkg.F or F) outside its own declaration;
//     a method's receiver does not count as a use of its type;
//   - a method counts as called when a non-test file selects it (x.M,
//     where x is not an imported package name);
//   - an exported name may be called from anywhere in the tree (root,
//     cmd/, examples/, internal/ and bench/), an unexported one only
//     from its own package directory.
//
// Test files and testdata are skipped. The rule cannot see a dead
// method whose name a live method shares. The test also fails on a
// surfaceKept entry that is no longer declared or that now has a
// caller, so the list cannot go stale.
func TestInternalSurfaceHasCallers(t *testing.T) {
	decls, called := scanSurface(t)
	declared := make(map[string]bool)
	var dead []string
	for _, d := range decls {
		k := d.dir + "." + d.name
		if d.recv != "" {
			k = d.dir + "." + d.recv + "." + d.name
		}
		declared[k] = true
		u := surfaceUse{d.dir, d.name, d.recv != ""}
		if u.method && token.IsExported(d.name) {
			u.dir = ""
		}
		_, kept := surfaceKept[k]
		switch {
		case called[u] && kept:
			t.Errorf("%s is kept in surfaceKept but has a caller; drop the entry", k)
		case !called[u] && !kept:
			dead = append(dead, k+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s: no non-test file uses it; delete it, or keep it in surfaceKept with a reason", k)
	}
	for k, why := range surfaceKept {
		if !declared[k] {
			t.Errorf("surfaceKept names %s, which no non-test file of internal/ declares", k)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("surfaceKept entry %s gives no reason", k)
		}
	}
}

// scanSurface parses every non-test Go file of the tree (bench/ too) and
// returns the declarations under internal/ and the names that are used.
func scanSurface(t *testing.T) ([]surfaceDecl, map[surfaceUse]bool) {
	t.Helper()
	var decls []surfaceDecl
	called := make(map[surfaceUse]bool)
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := make(map[string]string) // local name -> directory
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndexByte(p, '/')+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, "invisiblebits/")
		}
		declare := func(recv string, name *ast.Ident) {
			if strings.HasPrefix(dir, "internal/") && name.Name != "_" {
				decls = append(decls, surfaceDecl{dir, recv, name.Name, fset.Position(name.Pos())})
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				// A type, constant or variable: its declared names are
				// no use of themselves.
				use := useVisitor(dir, "", imports, called)
				for _, spec := range decl.(*ast.GenDecl).Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare("", spec.Name)
						if spec.TypeParams != nil {
							ast.Inspect(spec.TypeParams, use)
						}
						ast.Inspect(spec.Type, use)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							declare("", name)
						}
						if spec.Type != nil {
							ast.Inspect(spec.Type, use)
						}
						for _, v := range spec.Values {
							ast.Inspect(v, use)
						}
					}
				}
				continue
			}
			if fn.Name.Name != "init" && fn.Name.Name != "main" {
				declare(recvName(fn), fn.Name)
			}
			// The declared name is no use of itself, and neither is a
			// function's recursive call or a method's receiver type.
			self := ""
			if fn.Recv == nil {
				self = fn.Name.Name
			}
			ast.Inspect(fn.Type, useVisitor(dir, self, imports, called))
			if fn.Body != nil {
				ast.Inspect(fn.Body, useVisitor(dir, self, imports, called))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, called
}

// useVisitor returns an ast.Inspect visitor that records the names a
// file in dir uses, except a bare self.
func useVisitor(dir, self string, imports map[string]string, called map[surfaceUse]bool) func(ast.Node) bool {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if pkg, ok := imports[x.Name]; ok {
					called[surfaceUse{pkg, n.Sel.Name, false}] = true
					return false
				}
			}
			called[surfaceUse{dir, n.Sel.Name, true}] = true
			if token.IsExported(n.Sel.Name) {
				called[surfaceUse{"", n.Sel.Name, true}] = true
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if n.Name != self {
				called[surfaceUse{dir, n.Name, false}] = true
			}
		}
		return true
	}
	return visit
}

// recvName returns the receiver's type name of a method, "" for a
// function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// Command metriclint enforces the repo's metric naming rule: every
// metric family registered on a telemetry.Registry must be named by a
// string literal matching ^ixplight_[a-z_]+$ — lowercase, underscore
// separated, and carrying the module prefix so dashboards can glob
// ixplight_* across binaries.
//
// It also enforces the span naming rule: every trace span started by
// a string literal passed to StartSpan (or a package's startSpan
// helper) must match ^[a-z_]+(\.[a-z_]+)*$ — lowercase words joined
// by dots, the dot separating hierarchy levels (collector.neighbor,
// lg.request), so tracecat aggregates and ledger greps stay
// predictable.
//
// And it enforces that a registered metric is used: a family
// registered into a struct field (the NewMetrics pattern of lg,
// collector, ixpd and analysis) must have that field read somewhere in
// the non-test code of its package, or the family is exposed but never
// updated. The check is by field name within the package directory.
// Likewise a function that registers a family must be called (or
// otherwise referenced) from non-test code somewhere in the tree, or
// only tests ever install its instruments. The check is by function
// name across the tree; main and init need no caller.
//
// It walks every non-test Go file, finds calls to the registry
// constructors (Counter, CounterVec, Gauge, Histogram, HistogramVec)
// and span starters and checks their name argument. Exit status 1 when
// any rule is violated; the offending file:line is printed. Run via
// `make vet`.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var namePattern = regexp.MustCompile(`^ixplight_[a-z_]+$`)

// spanPattern is the span naming rule: lowercase words joined by
// dots, each dot one hierarchy level.
var spanPattern = regexp.MustCompile(`^[a-z_]+(\.[a-z_]+)*$`)

// spanStarters are the functions whose first string-literal argument
// is a span name: the package-level telemetry.StartSpan(ctx, reg,
// name), the explicit-root Registry.StartSpan(name), and the nil-safe
// startSpan(ctx, name) helpers the instrumented packages define.
var spanStarters = map[string]bool{
	"StartSpan": true,
	"startSpan": true,
}

// constructors are the telemetry.Registry methods whose first argument
// is a metric family name.
var constructors = map[string]bool{
	"Counter":      true,
	"CounterVec":   true,
	"Gauge":        true,
	"Histogram":    true,
	"HistogramVec": true,
}

// registration is one metric family registered into a struct field.
type registration struct {
	field, name string
	pos         token.Pos
}

// pkgFields accumulates, per package directory, the fields metric
// families are registered into and how often each field name is read.
type pkgFields struct {
	regs  []registration
	reads map[string]int
}

// registrar is a function whose body registers a metric family.
type registrar struct {
	key  string // dir.name for a function, .name for a method
	decl *ast.FuncDecl
}

// registers reports whether fn's body calls a registry constructor.
func registers(fn *ast.FuncDecl) bool {
	found := false
	if fn.Body != nil {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && !found {
				_, found = constructorCall(e)
			}
			return !found
		})
	}
	return found
}

// funcKey names a function by its package directory, and a method by
// its name alone: without types, a method call cannot be resolved to
// its receiver, so any selector of that name counts as a use.
func funcKey(dir string, fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		return "." + fn.Name.Name
	}
	return dir + "." + fn.Name.Name
}

// collectRefs counts the references file (in package directory dir)
// makes to functions and methods, keyed as funcKey keys them: a bare
// identifier refers to dir's function, pkg.F to F in the imported
// package's directory (resolved under root through the module path),
// and every x.M to any method M. Calls and function values both count;
// a declaration's own name does not.
func collectRefs(file *ast.File, dir, root, module string, refs map[string]int) {
	imports := make(map[string]string)
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		rel, ok := strings.CutPrefix(path, module+"/")
		if module == "" || !ok {
			continue
		}
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = filepath.Join(root, rel)
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl: // everything but the declared name
			if n.Recv != nil {
				ast.Inspect(n.Recv, visit)
			}
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.SelectorExpr:
			refs["."+n.Sel.Name]++
			if x, ok := n.X.(*ast.Ident); ok {
				if pkgDir, ok := imports[x.Name]; ok {
					refs[pkgDir+"."+n.Sel.Name]++
					return false
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			refs[dir+"."+n.Name]++
		}
		return true
	}
	for _, d := range file.Decls {
		ast.Inspect(d, visit)
	}
}

// modulePath reads the module path from root/go.mod ("" without one).
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// constructorCall reports whether e is a call of a registry
// constructor, and the metric name when it is a string literal.
func constructorCall(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !constructors[sel.Sel.Name] {
		return "", false
	}
	name := "?"
	if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
		name, _ = strconv.Unquote(lit.Value)
	}
	return name, true
}

// collectFields records file's field registrations and field reads
// into pf. A registration is a composite-literal key or an assignment
// target whose value is a constructor call; every other selector
// naming a field is a read.
func collectFields(file *ast.File, pf *pkgFields) {
	writes := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok {
				if name, ok := constructorCall(n.Value); ok {
					pf.regs = append(pf.regs, registration{key.Name, name, key.Pos()})
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if name, ok := constructorCall(n.Rhs[i]); ok {
					pf.regs = append(pf.regs, registration{sel.Sel.Name, name, sel.Sel.Pos()})
					writes[sel] = true
				}
			}
		case *ast.SelectorExpr:
			if !writes[n] {
				pf.reads[n.Sel.Name]++
			}
		}
		return true
	})
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	n, err := lint(root, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "metriclint: %d violation(s)\n", n)
		os.Exit(1)
	}
}

// lint checks every non-test Go file under root, printing each
// violation to w, and returns how many it found.
func lint(root string, w io.Writer) (int, error) {
	fset := token.NewFileSet()
	violations := 0
	pkgs := make(map[string]*pkgFields)
	var regFuncs []registrar
	refs := make(map[string]int)
	module := modulePath(root)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		pf := pkgs[filepath.Dir(path)]
		if pf == nil {
			pf = &pkgFields{reads: make(map[string]int)}
			pkgs[filepath.Dir(path)] = pf
		}
		collectFields(file, pf)
		dir := filepath.Dir(path)
		collectRefs(file, dir, root, module, refs)
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && registers(fn) {
				regFuncs = append(regFuncs, registrar{funcKey(dir, fn), fn})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if spanStarters[sel.Sel.Name] {
				// The span name is the first string literal: the leading
				// ctx and registry arguments never are.
				for _, arg := range call.Args {
					lit, ok := arg.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					name, err := strconv.Unquote(lit.Value)
					if err == nil && !spanPattern.MatchString(name) {
						fmt.Fprintf(w, "%s: span name %q does not match %s\n",
							fset.Position(lit.Pos()), name, spanPattern)
						violations++
					}
					break
				}
				return true
			}
			if !constructors[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				// Dynamic names go through SanitizeName at registration;
				// the lint covers the static catalog.
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil || namePattern.MatchString(name) {
				return true
			}
			fmt.Fprintf(w, "%s: metric name %q does not match %s\n",
				fset.Position(lit.Pos()), name, namePattern)
			violations++
			return true
		})
		return nil
	})
	if err != nil {
		return 0, err
	}
	dirs := make([]string, 0, len(pkgs))
	for dir := range pkgs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		pf := pkgs[dir]
		for _, r := range pf.regs {
			if pf.reads[r.field] == 0 {
				fmt.Fprintf(w, "%s: metric %q is registered into field %s, which no non-test code in %s reads\n",
					fset.Position(r.pos), r.name, r.field, dir)
				violations++
			}
		}
	}
	for _, r := range regFuncs {
		name := r.decl.Name.Name
		if r.decl.Recv == nil && (name == "main" || name == "init") {
			continue
		}
		if refs[r.key] == 0 {
			fmt.Fprintf(w, "%s: %s registers metric families, but no non-test code calls it\n",
				fset.Position(r.decl.Name.Pos()), name)
			violations++
		}
	}
	return violations, nil
}

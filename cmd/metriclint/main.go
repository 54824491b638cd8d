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
//
// It walks every non-test Go file, finds calls to the registry
// constructors (Counter, CounterVec, Gauge, GaugeVec, Histogram,
// HistogramVec) and span starters and checks their name argument.
// Exit status 1 when any rule is violated; the offending file:line is
// printed. Run via `make vet`.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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
	"GaugeVec":     true,
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
	fset := token.NewFileSet()
	violations := 0
	pkgs := make(map[string]*pkgFields)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
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
						fmt.Fprintf(os.Stderr, "%s: span name %q does not match %s\n",
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
			fmt.Fprintf(os.Stderr, "%s: metric name %q does not match %s\n",
				fset.Position(lit.Pos()), name, namePattern)
			violations++
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
				fmt.Fprintf(os.Stderr, "%s: metric %q is registered into field %s, which no non-test code in %s reads\n",
					fset.Position(r.pos), r.name, r.field, dir)
				violations++
			}
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "metriclint: %d violation(s)\n", violations)
		os.Exit(1)
	}
}

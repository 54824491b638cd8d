package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays files (slash paths → contents) out under a fresh
// directory and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// codecTree is two packages that each define a SetTelemetry
// registering a family, as collector and analysis once did. The
// command calls b's; only a's own test calls a's. extra adds files.
func codecTree(extra map[string]string) map[string]string {
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"a/a.go": `package a

type Registry struct{}

func (*Registry) Counter(name, help string) *int { return new(int) }

func SetTelemetry(reg *Registry) { reg.Counter("ixplight_a_total", "") }
`,
		"a/a_test.go": `package a

import "testing"

func TestSetTelemetry(t *testing.T) { SetTelemetry(&Registry{}) }
`,
		"b/b.go": `package b

import "fixture/a"

type metrics struct{ n *int }

func (m *metrics) install(reg *a.Registry) { m.n = reg.Counter("ixplight_b_total", "") }

func SetTelemetry(reg *a.Registry) {
	var m metrics
	m.install(reg)
	_ = m.n
}
`,
		"main.go": `package main

import (
	"fixture/a"
	"fixture/b"
)

func main() {
	reg := &a.Registry{}
	b.SetTelemetry(reg)
}
`,
	}
	for name, body := range extra {
		files[name] = body
	}
	return files
}

func TestLintFlagsRegistrarOnlyTestsCall(t *testing.T) {
	var out strings.Builder
	n, err := lint(writeTree(t, codecTree(nil)), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !strings.Contains(out.String(), filepath.Join("a", "a.go")) ||
		!strings.Contains(out.String(), "SetTelemetry registers metric families, but no non-test code calls it") {
		t.Errorf("%d violations, want a's SetTelemetry alone:\n%s", n, out.String())
	}
}

func TestLintPassesRegistrarCalledFromCode(t *testing.T) {
	var out strings.Builder
	n, err := lint(writeTree(t, codecTree(map[string]string{
		"main.go": `package main

import (
	"fixture/a"
	"fixture/b"
)

func main() {
	reg := &a.Registry{}
	a.SetTelemetry(reg)
	b.SetTelemetry(reg)
}
`,
	})), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("%d violations, want none:\n%s", n, out.String())
	}
}

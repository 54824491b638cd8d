package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"ixplight/internal/ixpgen"
)

// TestEvolvedSeriesStaysInsideDir: a custom -profile names its IXP
// freely. The delta days go where the base goes — directly inside dir,
// under the same spelling.
func TestEvolvedSeriesStaysInsideDir(t *testing.T) {
	p := *ixpgen.ProfileByName("DE-CIX")
	p.IXP = "../../my ixp"
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "snapshots")
	n, err := writeEvolvedSeries(dir, p, ixpgen.TemporalOptions{Seed: 1, Scale: 0.002, Days: 3}, 0.05, true)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if filepath.Dir(path) != dir {
				t.Errorf("file outside the dataset directory: %s", path)
			}
			names = append(names, filepath.Base(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(names) != 3 {
		t.Fatalf("wrote %d files, found %v; want 3", n, names)
	}
	for _, name := range names {
		if want := "_._.._my_ixp-"; !strings.HasPrefix(name, want) {
			t.Errorf("file %q does not carry the sanitised IXP name %q", name, want)
		}
	}
}

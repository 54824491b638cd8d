package main

import (
	"io/fs"
	"path/filepath"
	"slices"
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
	n, err := ixpgen.WriteSeries(dir, p, ixpgen.TemporalOptions{Seed: 1, Scale: 0.002, Days: 3})
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

// TestParseValleysRange: a valley is a day in [1, -days). Day 0 is the
// base the series evolves from and has no predecessor to drop from, and
// an offset past the series would inject nothing; both are errors that
// name the range, not five ordinary days written without a word.
func TestParseValleysRange(t *testing.T) {
	got, err := parseValleys("1, 4", 5)
	if err != nil || !slices.Equal(got, []int{1, 4}) {
		t.Fatalf("parseValleys(1, 4) = %v, %v", got, err)
	}
	for _, spec := range []string{"0", "5", "3,7", "-1"} {
		if _, err := parseValleys(spec, 5); err == nil || !strings.Contains(err.Error(), "[1, 5)") {
			t.Errorf("parseValleys(%q, 5): err = %v, want one naming [1, 5)", spec, err)
		}
	}
}

package collector

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// TestPlanAllocs pins what planning costs: one IXP's plan allocates the
// same at 6 days as at 84 — its one slab — whatever the layout: here a
// .bin of every day next to the delta chain of the same days, listed in
// shuffled order, so every sort, link and shadow rule runs.
func TestPlanAllocs(t *testing.T) {
	facts := func(days int) []*DayFile {
		var fs []*DayFile
		var prev [sha256.Size]byte
		for d := range days {
			date := fmt.Sprintf("2021-%03d", d)
			bin := &DayFile{Name: date + ".bin", Date: date, Digest: sha256.Sum256([]byte("bin " + date))}
			fs = append(fs, bin)
			if d == 0 {
				prev = bin.Digest
				continue
			}
			delta := &DayFile{Name: date + DeltaExt, Delta: true, Date: date, Digest: sha256.Sum256([]byte("delta " + date)), Base: prev}
			fs, prev = append(fs, delta), delta.Digest
		}
		rand.New(rand.NewSource(1)).Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
		return fs
	}
	small, big := facts(6), facts(84)
	if p := Plan(big); len(p.Served) != 84 || len(p.Order) != 84 || !p.Files[p.Tip()].Delta {
		t.Fatalf("the plan serves %d days, folds %d files; want the chain's 84", len(p.Served), len(p.Order))
	}
	a := testing.AllocsPerRun(20, func() { Plan(small) })
	b := testing.AllocsPerRun(20, func() { Plan(big) })
	t.Logf("planning allocates %.0f times at 6 days, %.0f at 84", a, b)
	if a != b || b > 1 {
		t.Errorf("planning allocates %.0f times at 6 days and %.0f at 84; want the same, once", a, b)
	}
}

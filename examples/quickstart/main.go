// Quickstart: classify communities under an IXP scheme, generate a
// small calibrated workload, and reproduce the paper's headline
// numbers for one IXP.
package main

import (
	"fmt"
	"log"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
)

func main() {
	// 1. Community classification under DE-CIX's scheme.
	scheme := dictionary.ProfileByName("DE-CIX")
	for _, s := range []string{"0:15169", "6695:6695", "65502:13335", "65535:666", "64496:77"} {
		c, err := bgp.ParseCommunity(s)
		if err != nil {
			log.Fatal(err)
		}
		cl := scheme.Classify(c)
		switch {
		case !cl.Known:
			fmt.Printf("%-12s → not defined by %s\n", c, scheme.IXP)
		case cl.Action == dictionary.Informational:
			fmt.Printf("%-12s → informational\n", c)
		default:
			fmt.Printf("%-12s → action: %v (target AS%d)\n", c, cl.Action, cl.TargetASN)
		}
	}

	// 2. The dictionary behind the classification (§3: 774 entries).
	dict := dictionary.Build(scheme)
	fmt.Printf("\n%s dictionary: %d communities\n", scheme.IXP, dict.Size())

	// 3. Generate a 5%-scale DE-CIX and reproduce the headline numbers.
	profile := ixpgen.ProfileByName("DE-CIX")
	w, err := ixpgen.Generate(*profile, ixpgen.Options{Seed: 1, Scale: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	// One classification pass; every analysis reads it.
	ix := analysis.NewIndex(w.Snapshot("2021-10-04"), profile.Scheme)

	usage := ix.Usage(false)
	fmt.Printf("\n%s (IPv4, scale 0.05):\n", profile.IXP)
	fmt.Printf("  members using action communities:  %.1f%%  (paper: 54.0%%)\n", 100*usage.ASShare())
	fmt.Printf("  routes carrying action communities: %.1f%%  (paper: 61.7%%)\n", 100*usage.RouteShare())
	fmt.Printf("  action share of defined standard:   %.1f%%  (paper: 70.4%%)\n",
		100*ix.ActionShare(false))

	nm := ix.NonMemberTargeting(false, 5)
	fmt.Printf("  actions targeting non-RS members:   %.1f%%  (paper: 49.5%%)\n", 100*nm.Share())
	fmt.Println("\n  top ineffective communities:")
	for i, cc := range nm.Top {
		fmt.Printf("   %d. %-12s ×%d\n", i+1, cc.Community, cc.Count)
	}
}

package dictionary_test

import (
	"fmt"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
)

// Classifying community values under an IXP's scheme.
func ExampleScheme_classify() {
	scheme := dictionary.ProfileByName("DE-CIX")
	for _, s := range []string{"0:15169", "6695:6695", "65535:666", "64496:7"} {
		c, _ := bgp.ParseCommunity(s)
		cl := scheme.Classify(c)
		if !cl.Known {
			fmt.Printf("%s: not defined by %s\n", c, scheme.IXP)
			continue
		}
		fmt.Printf("%s: %v\n", c, cl.Action)
	}
	// Output:
	// 0:15169: do-not-announce-to
	// 6695:6695: announce-only-to
	// 65535:666: blackholing
	// 64496:7: not defined by DE-CIX
}

// Building the §3 dictionary for one IXP.
func ExampleBuild() {
	scheme := dictionary.ProfileByName("AMS-IX")
	dict := dictionary.Build(scheme)
	fmt.Printf("%s defines %d communities\n", dict.IXP(), dict.Size())
	// Output:
	// AMS-IX defines 37 communities
}

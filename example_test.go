package ixplight_test

// Godoc examples for the public API. Each runs under go test and its
// output is verified, so these double as living documentation.

import (
	"fmt"

	"ixplight"
)

// Classifying community values under an IXP's scheme.
func ExampleScheme_classify() {
	scheme := ixplight.SchemeByName("DE-CIX")
	for _, s := range []string{"0:15169", "6695:6695", "65535:666", "64496:7"} {
		c, _ := ixplight.ParseCommunity(s)
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
func ExampleBuildDictionary() {
	scheme := ixplight.SchemeByName("AMS-IX")
	dict := ixplight.BuildDictionary(scheme)
	fmt.Printf("%s defines %d communities\n", dict.IXP(), dict.Size())
	// Output:
	// AMS-IX defines 37 communities
}

// Generating a calibrated workload and running a paper analysis.
func ExampleGenerate() {
	profile := ixplight.ProfileByName("LINX")
	w, err := ixplight.Generate(*profile, ixplight.GenOptions{Seed: 42, Scale: 0.02})
	if err != nil {
		panic(err)
	}
	snap := w.Snapshot("2021-10-04")
	usage := ixplight.NewIndex(snap, profile.Scheme).Usage(false)
	fmt.Printf("members with ≥1 action community: %d of %d\n",
		usage.ASesUsing, usage.MembersAtRS)
	// Output:
	// members with ≥1 action community: 6 of 16
}

// Steering route propagation with action communities at a route server.
func ExampleRouteServer() {
	scheme := ixplight.SchemeByName("DE-CIX")
	server, err := ixplight.NewRouteServer(ixplight.RSConfig{
		Scheme:       scheme,
		ScrubActions: true,
	})
	if err != nil {
		panic(err)
	}
	profile := ixplight.ProfileByName("DE-CIX")
	w, err := ixplight.Generate(*profile, ixplight.GenOptions{Seed: 42, Scale: 0.005})
	if err != nil {
		panic(err)
	}
	if err := w.Populate(server); err != nil {
		panic(err)
	}
	first := server.Peers()[0]
	exported := server.ExportTo(first.ASN)
	withheld := server.NotExportedTo(first.ASN)
	fmt.Printf("AS%d receives %v routes: %v\n", first.ASN, len(exported) > 0, len(exported)+len(withheld) > len(exported))
	// Output:
	// AS174 receives true routes: true
}

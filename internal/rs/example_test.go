package rs_test

import (
	"fmt"

	"ixplight/internal/ixpgen"
	"ixplight/internal/rs"
)

// Steering route propagation with action communities at a route server.
func ExampleServer() {
	profile := ixpgen.ProfileByName("DE-CIX")
	server, err := rs.New(rs.Config{
		Scheme:       profile.Scheme,
		ScrubActions: true,
	})
	if err != nil {
		panic(err)
	}
	w, err := ixpgen.Generate(*profile, ixpgen.Options{Seed: 42, Scale: 0.005})
	if err != nil {
		panic(err)
	}
	if err := w.Populate(server); err != nil {
		panic(err)
	}
	peers := server.Peers()
	first := peers[0]
	announced := 0
	for _, p := range peers[1:] {
		accepted, _ := server.RouteCounts(p.ASN)
		announced += accepted
	}
	exported := server.ExportTo(first.ASN)
	fmt.Printf("AS%d receives %d of the %d routes the other members announce\n", first.ASN, len(exported), announced)
	// Output:
	// AS174 receives 4208 of the 4946 routes the other members announce
}

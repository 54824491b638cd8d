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
	first := server.Peers()[0]
	exported := server.ExportTo(first.ASN)
	withheld := server.NotExportedTo(first.ASN)
	fmt.Printf("AS%d receives %v routes: %v\n", first.ASN, len(exported) > 0, len(exported)+len(withheld) > len(exported))
	// Output:
	// AS174 receives true routes: true
}

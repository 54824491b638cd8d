package analysis_test

import (
	"fmt"

	"ixplight/internal/analysis"
	"ixplight/internal/ixpgen"
)

// Generating a calibrated workload and running a paper analysis.
func ExampleIndex_Usage() {
	profile := ixpgen.ProfileByName("LINX")
	w, err := ixpgen.Generate(*profile, ixpgen.Options{Seed: 42, Scale: 0.02})
	if err != nil {
		panic(err)
	}
	snap := w.Snapshot("2021-10-04")
	usage := analysis.NewIndex(snap, profile.Scheme).Usage(false)
	fmt.Printf("members with ≥1 action community: %d of %d\n",
		usage.ASesUsing, usage.MembersAtRS)
	// Output:
	// members with ≥1 action community: 6 of 16
}

// Package ixplight is a laboratory for studying action BGP communities
// at Internet eXchange Point route servers, reproducing "Light,
// Camera, Actions: characterizing the usage of IXPs' action BGP
// communities" (CoNEXT 2022).
//
// The package re-exports the library's public surface from the
// internal implementation packages:
//
//   - BGP model and wire codec (standard/extended/large communities,
//     UPDATE/OPEN messages, routes) — internal/bgp
//   - per-IXP community dictionaries and classification —
//     internal/dictionary
//   - an RFC 7947 route server executing action communities —
//     internal/rs
//   - an alice-lg-style looking glass server and crawler —
//     internal/lg, internal/collector
//   - a workload generator calibrated to the paper's aggregates —
//     internal/ixpgen
//   - the paper's analyses and report renderers —
//     internal/analysis, internal/report
//
// # Quickstart
//
//	profile := ixplight.ProfileByName("DE-CIX")
//	w, _ := ixplight.Generate(*profile, ixplight.GenOptions{Seed: 1, Scale: 0.05})
//	snap := w.Snapshot("2021-10-04")
//	usage := ixplight.NewIndex(snap, profile.Scheme).Usage(false)
//	fmt.Printf("%.1f%% of members use action communities\n", 100*usage.ASShare())
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory and the paper-experiment index.
package ixplight

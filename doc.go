// Package ixplight is a laboratory for studying action BGP communities
// at Internet eXchange Point route servers, reproducing "Light,
// Camera, Actions: characterizing the usage of IXPs' action BGP
// communities" (CoNEXT 2022).
//
// The root package holds only the diagnostic benchmarks in
// bench_test.go; the library lives in the internal packages:
//
//   - BGP route model (standard/extended/large communities, routes)
//     and the MRT RIB attribute codec — internal/bgp
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
// See cmd/ and examples/ for runnable programs (examples/quickstart is
// the shortest tour) and DESIGN.md for the system inventory and the
// paper-experiment index.
package ixplight

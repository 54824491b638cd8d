// Package analysis implements the paper's measurements over collected
// snapshots: the community type mix (Fig. 1–2), the action vs
// informational split (Fig. 3), action-community usage by ASes and
// routes (Fig. 4a), usage concentration (Fig. 4b), the route-share
// correlation (Fig. 4c), per-action-type AS counts (Table 2) and
// occurrence counts (§5.3), top-k communities and targets (Fig. 5),
// targeting of non-RS members (§5.5, Fig. 6) and the responsible
// "culprit" ASes (Fig. 7), plus the snapshot-stability tables of
// Appendix A (Tables 3–4).
//
// Every function takes a *collector.Snapshot plus the hosting IXP's
// *dictionary.Scheme and an address-family selector, mirroring how the
// paper slices each analysis per IXP and per family.
//
// One execution path backs every entry point: the classified snapshot
// Index (index.go), which classifies each distinct community value
// once and precomputes the aggregates all ~20 analyses slice. One fold
// builds it (advance.go) from three sources — a binary snapshot's
// columns, a delta's ops on top of the previous day's index, or a
// materialized []bgp.Route — and the scheme-taking functions are
// IndexFor(s, scheme).X(…). The three scheme-less ones (CountSnapshot,
// HygieneFilterImpact, CommunityCountPercentiles) need no
// classification: they read the attached index of a header-only
// snapshot and walk the routes of any other.
//
// The reference implementation lives in oracle_test.go: the *Direct
// functions re-walk a materialized snapshot and re-classify every
// community instance per analysis. They share no code with the fold,
// and every source of the fold, and every day of an advanced chain, is
// held to them accessor by accessor.
package analysis

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
// Every analysis is a method on *Index — one snapshot classified
// under the hosting IXP's *dictionary.Scheme — taking an address-family
// selector, mirroring how the paper slices each analysis per IXP and
// per family.
//
// The classified snapshot Index (index.go) classifies each distinct
// community value once and precomputes the aggregates all ~20 analyses
// slice. One fold builds it (advance.go) from three sources — a binary
// snapshot's columns, a delta's ops on top of the previous day's
// index, or a materialized []bgp.Route. An index belongs to whoever
// built its snapshot, who keeps it next to the snapshot: the package
// keeps no cache, and a snapshot carries nothing but itself. The series
// reads need no classification and take a day's counts, DayCounts: the
// fold gives any day's (Index.DayCounts), one walk gives a routed
// snapshot's (CountDay), and Stability and WeeklyRepresentatives read
// them. That is all a chained day is read for, so it stays counts-only
// until Index.Materialize readies the one day that is served.
//
// The reference implementation lives in oracle_test.go: the *Direct
// functions re-walk a materialized snapshot and re-classify every
// community instance per analysis. They share no code with the fold,
// and every source of the fold, and every day of an advanced chain, is
// held to them accessor by accessor.
package analysis

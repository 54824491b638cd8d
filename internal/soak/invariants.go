package soak

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"

	"ixplight/internal/analysis"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// CheckResult is one invariant's verdict. A soak run passes only when
// every check is OK.
type CheckResult struct {
	Name   string // invariant family, e.g. "codec-roundtrip"
	IXP    string
	OK     bool
	Detail string
}

func (c CheckResult) String() string {
	mark := "ok"
	if !c.OK {
		mark = "FAIL"
	}
	return fmt.Sprintf("[%s] %s %s: %s", mark, c.Name, c.IXP, c.Detail)
}

// digest hashes a snapshot's binary-codec encoding — the
// byte-for-byte identity the acceptance criterion compares.
func digest(s *collector.Snapshot) (string, error) {
	h := sha256.New()
	if err := collector.WriteSnapshot(h, s, collector.CodecBinary); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkCodecs verifies that a snapshot survives the binary codec
// round-trip exactly and that Normalize is idempotent on it.
func checkCodecs(ixp string, snap *collector.Snapshot) []CheckResult {
	var out []CheckResult
	var buf bytes.Buffer
	var back *collector.Snapshot
	err := collector.WriteSnapshot(&buf, snap, collector.CodecBinary)
	if err == nil {
		var sr *collector.SnapshotReader
		if sr, err = collector.NewSnapshotReaderBytes(buf.Bytes()); err == nil {
			back, err = sr.Snapshot()
		}
	}
	switch {
	case err != nil:
		out = append(out, CheckResult{"codec-roundtrip", ixp, false, err.Error()})
	case !reflect.DeepEqual(snap, back):
		out = append(out, CheckResult{"codec-roundtrip", ixp, false, "round-trip not identical"})
	default:
		out = append(out, CheckResult{"codec-roundtrip", ixp, true, fmt.Sprintf("%d bytes", buf.Len())})
	}
	renorm := *snap
	renorm.Members = append([]collector.Member(nil), snap.Members...)
	renorm.Routes = append(snap.Routes[:0:0], snap.Routes...)
	renorm.MemberErrors = append([]collector.MemberError(nil), snap.MemberErrors...)
	renorm.Normalize()
	if !reflect.DeepEqual(snap, &renorm) {
		out = append(out, CheckResult{"normalize-idempotent", ixp, false, "Normalize changed an already-normalized snapshot"})
	} else {
		out = append(out, CheckResult{"normalize-idempotent", ixp, true, fmt.Sprintf("%d routes stable", len(snap.Routes))})
	}
	return out
}

// checkMemberErrors verifies the degraded snapshot's member errors
// against the scripted outage. Strict IXPs (deterministic chaos only)
// must report exactly the outage set; relaxed IXPs at least it.
func checkMemberErrors(ixp string, snap *collector.Snapshot, chaos IXPChaos) CheckResult {
	failed := snap.FailedMemberSet()
	for _, asn := range chaos.Outage {
		if !failed[asn] {
			return CheckResult{"member-errors", ixp, false,
				fmt.Sprintf("outage neighbor AS%d missing from member errors %v", asn, errorASNs(snap))}
		}
	}
	if chaos.Strict && len(failed) != len(chaos.Outage) {
		return CheckResult{"member-errors", ixp, false,
			fmt.Sprintf("strict IXP: member errors %v != scripted outage %v", errorASNs(snap), chaos.Outage)}
	}
	return CheckResult{"member-errors", ixp, true,
		fmt.Sprintf("%d member errors cover outage %v", len(snap.MemberErrors), chaos.Outage)}
}

func errorASNs(snap *collector.Snapshot) []uint32 {
	out := make([]uint32, 0, len(snap.MemberErrors))
	for _, me := range snap.MemberErrors {
		out = append(out, me.ASN)
	}
	return out
}

// restrict builds the reference run's view of a degraded world: the
// reference snapshot minus the routes of the failed members. Members
// stay — a degraded crawl still fetches the full member list — and so
// does FilteredCount, which comes from the same listing.
func restrict(ref *collector.Snapshot, failed map[uint32]bool) *collector.Snapshot {
	out := &collector.Snapshot{
		IXP:           ref.IXP,
		Date:          ref.Date,
		Members:       append([]collector.Member(nil), ref.Members...),
		FilteredCount: ref.FilteredCount,
	}
	for _, r := range ref.Routes {
		if !failed[r.PeerAS()] {
			out.Routes = append(out.Routes, r)
		}
	}
	out.Normalize()
	return out
}

// checkDegradedEquivalence verifies invariant 4: the degraded
// snapshot carries exactly the reference content restricted to the
// surviving members — first byte-for-byte on the route data, then
// through the analysis layer (the numbers the paper reports must not
// care whether a member was missing or never crawled).
func checkDegradedEquivalence(ixp string, scheme *dictionary.Scheme, ref, degraded *collector.Snapshot) []CheckResult {
	var out []CheckResult
	want := restrict(ref, degraded.FailedMemberSet())
	got := *degraded
	got.Partial = false
	got.MemberErrors = nil
	wantDigest, werr := digest(want)
	gotDigest, gerr := digest(&got)
	switch {
	case werr != nil || gerr != nil:
		out = append(out, CheckResult{"degraded-equivalence", ixp, false, fmt.Sprintf("digest: %v %v", werr, gerr)})
	case wantDigest != gotDigest:
		out = append(out, CheckResult{"degraded-equivalence", ixp, false,
			fmt.Sprintf("degraded routes != reference restricted to survivors (%d vs %d routes)", len(got.Routes), len(want.Routes))})
	default:
		out = append(out, CheckResult{"degraded-equivalence", ixp, true,
			fmt.Sprintf("%d routes identical to restricted reference", len(got.Routes))})
	}
	gotIx, wantIx := analysis.NewIndex(degraded, scheme), analysis.NewIndex(want, scheme)
	for _, v6 := range []bool{false, true} {
		fam := "v4"
		if v6 {
			fam = "v6"
		}
		if u1, u2 := gotIx.Usage(v6), wantIx.Usage(v6); u1 != u2 {
			out = append(out, CheckResult{"analysis-equivalence", ixp, false,
				fmt.Sprintf("%s usage %+v != restricted reference %+v", fam, u1, u2)})
			continue
		}
		if o1, o2 := gotIx.OccurrencesPerType(v6), wantIx.OccurrencesPerType(v6); !reflect.DeepEqual(o1, o2) {
			out = append(out, CheckResult{"analysis-equivalence", ixp, false,
				fmt.Sprintf("%s per-type occurrences diverge", fam)})
			continue
		}
		a1, i1 := gotIx.ActionInfoSplit(v6)
		a2, i2 := wantIx.ActionInfoSplit(v6)
		if a1 != a2 || i1 != i2 {
			out = append(out, CheckResult{"analysis-equivalence", ixp, false,
				fmt.Sprintf("%s action/info split %d/%d != %d/%d", fam, a1, i1, a2, i2)})
			continue
		}
		out = append(out, CheckResult{"analysis-equivalence", ixp, true, fam + " usage, occurrences and split match"})
	}
	return out
}

// scrapeCounters fetches a /metrics endpoint over HTTP and parses the
// counter samples (histogram series and comments skipped) into
// name{labels} → value.
func scrapeCounters(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("soak: scrape %s: HTTP %d", url, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 16<<20))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// counterSum adds up every sample of one family (all label
// combinations).
func counterSum(samples map[string]float64, family string) float64 {
	var sum float64
	for name, v := range samples {
		if name == family || strings.HasPrefix(name, family+"{") {
			sum += v
		}
	}
	return sum
}

// checkCounter compares one scraped value against an observed total.
func checkCounter(name string, got float64, want int) CheckResult {
	if int(got) != want {
		return CheckResult{"metrics-reconcile", name, false,
			fmt.Sprintf("/metrics says %d, run observed %d", int(got), want)}
	}
	return CheckResult{"metrics-reconcile", name, true, fmt.Sprintf("%d", want)}
}

// checkListings holds a crawl that ran while the route server moved from
// day before to day after to the one-instant rule: every neighbor's
// routes are its Adj-RIB-In at one version, all of before's or all of
// after's, never pages of both.
func checkListings(ixp string, crawled, before, after *collector.Snapshot) CheckResult {
	got, was, is := routesByPeer(crawled), routesByPeer(before), routesByPeer(after)
	moved := 0
	for _, m := range crawled.Members {
		switch {
		case reflect.DeepEqual(got[m.ASN], is[m.ASN]):
			if !reflect.DeepEqual(got[m.ASN], was[m.ASN]) {
				moved++
			}
		case reflect.DeepEqual(got[m.ASN], was[m.ASN]):
		default:
			return CheckResult{"churn-listing", ixp, false,
				fmt.Sprintf("AS%d's %d routes are neither its day-0 nor its day-1 Adj-RIB-In", m.ASN, len(got[m.ASN]))}
		}
	}
	return CheckResult{"churn-listing", ixp, true,
		fmt.Sprintf("%d neighbors, %d listed at the new version", len(crawled.Members), moved)}
}

// routesByPeer groups a snapshot's routes by announcing peer, in order.
func routesByPeer(s *collector.Snapshot) map[uint32][]bgp.Route {
	m := map[uint32][]bgp.Route{}
	for _, r := range s.Routes {
		m[r.PeerAS()] = append(m[r.PeerAS()], r)
	}
	return m
}

package sanitize

import (
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/netutil"
)

// snapshotWith builds a snapshot with n members and n×3 routes.
func snapshotWith(n int, date string) *collector.Snapshot {
	s := &collector.Snapshot{IXP: "X", Date: date}
	for i := 0; i < n; i++ {
		asn := uint32(100 + i)
		s.Members = append(s.Members, collector.Member{ASN: asn, IPv4: true})
		for j := 0; j < 3; j++ {
			s.Routes = append(s.Routes, bgp.Route{
				Prefix:  netutil.SyntheticV4Prefix(i*3 + j),
				NextHop: netutil.PeerAddrV4(i),
				ASPath:  bgp.ASPath{asn},
			})
		}
	}
	return s
}

func series(sizes ...int) []*collector.Snapshot {
	out := make([]*collector.Snapshot, len(sizes))
	for i, n := range sizes {
		out[i] = snapshotWith(n, "2021-07-19")
	}
	return out
}

func TestDetectValleySimple(t *testing.T) {
	// 100,100,60,100,100: day 2 drops 40% and recovers.
	snaps := series(100, 100, 60, 100, 100)
	valleys := DetectValleys(snaps)
	if len(valleys) != 1 || valleys[0] != 2 {
		t.Errorf("valleys = %v, want [2]", valleys)
	}
}

func TestGenuineDeclineIsNotAValley(t *testing.T) {
	// Drops 40% and stays down: real change, keep it.
	snaps := series(100, 100, 60, 58, 59, 60)
	if valleys := DetectValleys(snaps); len(valleys) != 0 {
		t.Errorf("valleys = %v, want none (no recovery)", valleys)
	}
}

func TestSmallDipIgnored(t *testing.T) {
	// 20% dip is under the 30% threshold.
	snaps := series(100, 80, 100)
	if valleys := DetectValleys(snaps); len(valleys) != 0 {
		t.Errorf("valleys = %v, want none", valleys)
	}
}

func TestRecoveryOutsideWindow(t *testing.T) {
	// Recovery happens 5 snapshots later, past the default window of 3.
	snaps := series(100, 60, 61, 60, 61, 60, 100)
	if valleys := DetectValleys(snaps); len(valleys) != 0 {
		t.Errorf("valleys = %v, want none (late recovery)", valleys)
	}
	// Recovery on the window's last snapshot still counts.
	if valleys := DetectValleys(series(100, 60, 61, 60, 100)); len(valleys) != 1 {
		t.Errorf("valleys = %v, want one (recovery on day 3 of the window)", valleys)
	}
}

func TestMultipleValleys(t *testing.T) {
	snaps := series(100, 50, 100, 100, 40, 100, 100)
	valleys := DetectValleys(snaps)
	if len(valleys) != 2 || valleys[0] != 1 || valleys[1] != 4 {
		t.Errorf("valleys = %v, want [1 4]", valleys)
	}
}

func TestCleanRemovesValleys(t *testing.T) {
	snaps := series(100, 100, 55, 100, 100)
	kept, removed := Clean(snaps)
	if removed != 1 || len(kept) != 4 {
		t.Errorf("removed = %d kept = %d", removed, len(kept))
	}
	for _, s := range kept {
		if len(s.Members) == 55 {
			t.Error("valley snapshot survived cleaning")
		}
	}
}

func TestCleanEmptyAndSingle(t *testing.T) {
	if kept, removed := Clean(nil); removed != 0 || len(kept) != 0 {
		t.Error("empty series mishandled")
	}
	one := series(100)
	if kept, removed := Clean(one); removed != 0 || len(kept) != 1 {
		t.Error("single snapshot mishandled")
	}
}

func TestPrefixValleyAlsoDetected(t *testing.T) {
	// Members stable, prefixes collapse: collection lost routes only.
	snaps := series(100, 100, 100, 100)
	snaps[2].Routes = snaps[2].Routes[:90] // 300 → 90 prefixes (70% drop)
	valleys := DetectValleys(snaps)
	if len(valleys) != 1 || valleys[0] != 2 {
		t.Errorf("valleys = %v, want [2]", valleys)
	}
}

func TestZeroPreviousDaySafe(t *testing.T) {
	snaps := series(0, 0, 10)
	if valleys := DetectValleys(snaps); len(valleys) != 0 {
		t.Errorf("valleys = %v on zero series", valleys)
	}
}

// Package collector implements the paper's §3 data pipeline: daily
// snapshots of an IXP route server (member list plus every member's
// accepted routes) assembled by crawling a looking-glass API, and the
// dataset files those snapshots persist into.
package collector

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ixplight/internal/bgp"
)

// Member is one AS present at the route server in a snapshot. The
// collection captures peers with active sessions regardless of whether
// they share routes (§3).
type Member struct {
	ASN  uint32 `json:"asn"`
	Name string `json:"name"`
	IPv4 bool   `json:"ipv4"`
	IPv6 bool   `json:"ipv6"`
}

// Collection stages recorded in MemberError.
const (
	// StageRoutes means the neighbor's route listing failed.
	StageRoutes = "routes"
	// StageSkipped means the neighbor was never attempted because the
	// per-target error budget tripped the circuit breaker first.
	StageSkipped = "skipped"
)

// MemberError records one neighbor whose routes could not be
// collected. A partial snapshot carries one entry per missing member,
// so degraded data always comes with explicit provenance — the §3
// stance that a flagged gap beats a silently lost snapshot.
type MemberError struct {
	ASN      uint32 `json:"asn"`
	Stage    string `json:"stage"`
	Err      string `json:"error"`
	Attempts int    `json:"attempts"`
}

// Snapshot is one day's view of one IXP route server: the member list
// and the accepted routes of every member (the announcing member is
// the first hop of each route's AS path). FilteredCount records how
// many routes the RS rejected, without storing them. Partial flags a
// degraded collection; MemberErrors then explains exactly which
// members' routes are missing and why.
type Snapshot struct {
	IXP           string        `json:"ixp"`
	Date          string        `json:"date"` // YYYY-MM-DD
	Members       []Member      `json:"members"`
	Routes        []bgp.Route   `json:"routes"`
	FilteredCount int           `json:"filtered_count"`
	Partial       bool          `json:"partial,omitempty"`
	MemberErrors  []MemberError `json:"member_errors,omitempty"`

	// aux is an out-of-band consumer attachment (analysis hangs a
	// pre-built index on route-less snapshots through it). No codec
	// encodes it. reflect.DeepEqual does see unexported fields, so
	// attach aux only to snapshots that are not DeepEqual'd against
	// codec round-trips.
	aux any
}

// SetAux attaches an out-of-band consumer value to the snapshot. Call
// it before the snapshot is shared across goroutines; Aux reads are
// unsynchronized.
func (s *Snapshot) SetAux(v any) { s.aux = v }

// Aux returns the value attached with SetAux, or nil.
func (s *Snapshot) Aux() any { return s.aux }

// FailedMemberSet returns the ASNs whose routes are missing from a
// partial snapshot.
func (s *Snapshot) FailedMemberSet() map[uint32]bool {
	set := make(map[uint32]bool, len(s.MemberErrors))
	for _, e := range s.MemberErrors {
		set[e.ASN] = true
	}
	return set
}

// Day parses the snapshot date.
func (s *Snapshot) Day() (time.Time, error) {
	return time.Parse("2006-01-02", s.Date)
}

// MemberSet returns the set of member ASNs, the §5.5 membership test.
func (s *Snapshot) MemberSet() map[uint32]bool {
	set := make(map[uint32]bool, len(s.Members))
	for _, m := range s.Members {
		set[m.ASN] = true
	}
	return set
}

// MembersV4 counts members with an IPv4 session.
func (s *Snapshot) MembersV4() int {
	n := 0
	for _, m := range s.Members {
		if m.IPv4 {
			n++
		}
	}
	return n
}

// MembersV6 counts members with an IPv6 session.
func (s *Snapshot) MembersV6() int {
	n := 0
	for _, m := range s.Members {
		if m.IPv6 {
			n++
		}
	}
	return n
}

// RoutesFamily returns the routes of one family (v6 selects IPv6).
// It counts first and allocates the result exactly once — the method
// runs per family per experiment on snapshots with ~10⁵ routes, where
// append-doubling costs a dozen reallocations and copies.
func (s *Snapshot) RoutesFamily(v6 bool) []bgp.Route {
	n := 0
	for i := range s.Routes {
		if s.Routes[i].IsIPv6() == v6 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]bgp.Route, 0, n)
	for i := range s.Routes {
		if s.Routes[i].IsIPv6() == v6 {
			out = append(out, s.Routes[i])
		}
	}
	return out
}

// Normalize sorts members (and member errors) by ASN and routes by
// (family, prefix, announcing peer) so that snapshots serialise
// deterministically.
func (s *Snapshot) Normalize() {
	s.sortMembers()
	// slices.SortFunc over sort.Slice: the comparator runs on concrete
	// element types instead of reflect-backed swaps, which is
	// measurably faster on the snapshot write path.
	slices.SortFunc(s.Routes, func(a, b bgp.Route) int { return routeCompare(&a, &b) })
}

// sortMembers is the member half of Normalize, for a builder that
// produces its routes in order (CollectWithOptions merges them).
func (s *Snapshot) sortMembers() {
	slices.SortFunc(s.Members, func(a, b Member) int { return cmp.Compare(a.ASN, b.ASN) })
	slices.SortFunc(s.MemberErrors, func(a, b MemberError) int { return cmp.Compare(a.ASN, b.ASN) })
}

// Codec selects a snapshot serialisation. One is left: the JSON, gzipped
// JSON and gob codecs were removed, and MRT (an interchange export) and
// delta files (not self-contained) were never codecs.
type Codec int

// CodecBinary is the hand-rolled columnar format (binary.go):
// varint-encoded columns with deduplicated intern tables for AS paths,
// next hops and community sets.
const CodecBinary Codec = 0

// String implements fmt.Stringer.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return fmt.Sprintf("Codec(%d)", int(c))
}

// Ext returns the conventional file extension for the codec.
func (c Codec) Ext() string {
	if c == CodecBinary {
		return ".bin"
	}
	return fmt.Sprintf(".codec%d", int(c))
}

// MRTExt is the file extension of a day exported as an MRT
// TABLE_DUMP_V2 archive (internal/mrt), the third kind of dataset file
// next to Codec.Ext() and DeltaExt.
const MRTExt = ".mrt"

// WriteSnapshot serialises s to w using the codec.
func WriteSnapshot(w io.Writer, s *Snapshot, codec Codec) error {
	if codec != CodecBinary {
		return fmt.Errorf("collector: unknown codec %v", codec)
	}
	_, err := w.Write(appendBinarySnapshot(nil, s))
	return err
}

// AtomicWrite writes a file through write via a temp file in the same
// directory followed by a rename — the Checkpoint.Save discipline — so
// a crash mid-write never leaves a truncated or corrupt file at path.
// Missing parent directories are created.
func AtomicWrite(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// DatasetPath is where the dataset file of kind ext (Codec.Ext(),
// DeltaExt or MRTExt) for s's IXP and day lives in dir:
// <ixp>-<date><ext>. The IXP name is whatever a looking glass answered,
// so every character outside [A-Za-z0-9.-], and a leading dot, becomes
// '_': the file stays inside dir whatever the name, is not mistaken for
// one of AtomicWrite's dot-prefixed temp files (which loaders skip), and
// a chain's base and its deltas agree on the spelling. Every writer of
// dataset files names them here.
func DatasetPath(dir string, s *Snapshot, ext string) string {
	return filepath.Join(dir, sanitizeName(s.IXP)+"-"+s.Date+ext)
}

// SaveSnapshot writes s into dir as DatasetPath names it, creating the
// directory if needed, and returns the file path. The write is atomic
// (temp file + rename): an interrupted save never leaves a truncated
// snapshot where the next collection run would trust it.
func SaveSnapshot(dir string, s *Snapshot, codec Codec) (string, error) {
	path := DatasetPath(dir, s, codec.Ext())
	if err := AtomicWrite(path, func(w io.Writer) error {
		return WriteSnapshot(w, s, codec)
	}); err != nil {
		return "", err
	}
	return path, nil
}

// SaveDelta writes buf — DeltaEncoder.Encode's bytes for day s — into
// dir as DatasetPath names it, atomically like SaveSnapshot.
func SaveDelta(dir string, s *Snapshot, buf []byte) (string, error) {
	path := DatasetPath(dir, s, DeltaExt)
	if err := AtomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	}); err != nil {
		return "", err
	}
	return path, nil
}

// LoadSnapshot reads a snapshot file written by SaveSnapshot.
func LoadSnapshot(path string) (*Snapshot, error) {
	sr, err := OpenSnapshotAt(path)
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	return sr.Snapshot()
}

func sanitizeName(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.' && i > 0:
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// Package collector implements the paper's §3 data pipeline: daily
// snapshots of an IXP route server (member list plus every member's
// accepted routes) assembled by crawling a looking-glass API, and the
// dataset files those snapshots persist into.
package collector

import (
	"cmp"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
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

	// aux is an out-of-band consumer attachment (analysis pins a
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

// Dataset is a time-ordered series of snapshots for one IXP.
type Dataset struct {
	IXP       string     `json:"ixp"`
	Snapshots []Snapshot `json:"snapshots"`
}

// Codec selects a snapshot serialisation (the snapshot-codec ablation).
type Codec int

// Available codecs.
const (
	CodecJSON Codec = iota
	CodecJSONGzip
	// CodecBinary is the hand-rolled columnar format (binary.go):
	// varint-encoded columns with deduplicated intern tables for AS
	// paths, next hops and community sets, decoded from a single
	// per-snapshot arena. The fastest decode path and the format
	// cmd/analyze-scale re-reads should use.
	CodecBinary
)

// Codecs lists every available codec in declaration order — the
// snapshot-codec ablation iterates it.
func Codecs() []Codec {
	return []Codec{CodecJSON, CodecJSONGzip, CodecBinary}
}

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case CodecJSON:
		return "json"
	case CodecJSONGzip:
		return "json+gzip"
	case CodecBinary:
		return "binary"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// Ext returns the conventional file extension for the codec.
func (c Codec) Ext() string {
	switch c {
	case CodecJSON:
		return ".json"
	case CodecJSONGzip:
		return ".json.gz"
	case CodecBinary:
		return ".bin"
	default:
		return fmt.Sprintf(".codec%d", int(c))
	}
}

// gzipWriters pools gzip writers across snapshot writes: a gzip
// writer carries ~800kB of deflate state, and the daily-snapshot
// write path would otherwise reallocate it once per snapshot.
var gzipWriters = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// withPooledGzip runs encode against a pooled gzip writer targeting w,
// closing (flushing) it afterwards. The writer is detached from w
// before being pooled so the pool never pins caller buffers.
func withPooledGzip(w io.Writer, encode func(io.Writer) error) error {
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(w)
	err := encode(zw)
	cerr := zw.Close()
	zw.Reset(io.Discard)
	gzipWriters.Put(zw)
	if err != nil {
		return err
	}
	return cerr
}

// WriteSnapshot serialises s to w using the codec.
func WriteSnapshot(w io.Writer, s *Snapshot, codec Codec) error {
	switch codec {
	case CodecJSON:
		return json.NewEncoder(w).Encode(s)
	case CodecJSONGzip:
		return withPooledGzip(w, func(zw io.Writer) error {
			return json.NewEncoder(zw).Encode(s)
		})
	case CodecBinary:
		_, err := w.Write(appendBinarySnapshot(nil, s))
		return err
	default:
		return fmt.Errorf("collector: unknown codec %v", codec)
	}
}

// countingReader tracks encoded bytes consumed, for the codec
// telemetry.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Len lets size hints pass through the counter (bytes.Reader,
// bytes.Buffer and strings.Reader all report remaining length).
func (c *countingReader) Len() int {
	if lr, ok := c.r.(interface{ Len() int }); ok {
		return lr.Len()
	}
	return -1
}

// readAllHint is io.ReadAll with an exact-size first allocation when
// the remaining length is known — from the hint, or from the reader's
// own Len(). io.ReadAll's doubling growth re-clears and re-copies the
// buffer ~log2(size) times, which is a third of the binary codec's
// decode cost on a megabyte snapshot; a sized allocation reads the
// bytes exactly once.
func readAllHint(r io.Reader, hint int) ([]byte, error) {
	if hint < 0 {
		if lr, ok := r.(interface{ Len() int }); ok {
			hint = lr.Len()
		}
	}
	if hint < 0 {
		return io.ReadAll(r)
	}
	buf := make([]byte, 0, hint+1) // +1 so EOF surfaces without a growth step
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// ReadSnapshot deserialises one snapshot from r.
func ReadSnapshot(r io.Reader, codec Codec) (*Snapshot, error) {
	tel := codecTel()
	t0 := tel.now()
	cr := r
	var counter *countingReader
	if tel != nil {
		counter = &countingReader{r: r}
		cr = counter
	}
	s, err := readSnapshot(cr, codec)
	if err != nil {
		return nil, err
	}
	if tel != nil {
		tel.decoded(codec, t0, counter.n, len(s.Routes))
	}
	return s, nil
}

func readSnapshot(r io.Reader, codec Codec) (*Snapshot, error) {
	var s Snapshot
	switch codec {
	case CodecJSON:
		if err := json.NewDecoder(r).Decode(&s); err != nil {
			return nil, err
		}
	case CodecJSONGzip:
		zr, err := gzip.NewReader(r)
		if err != nil {
			return nil, err
		}
		defer zr.Close()
		if err := json.NewDecoder(zr).Decode(&s); err != nil {
			return nil, err
		}
	case CodecBinary:
		data, err := readAllHint(r, -1)
		if err != nil {
			return nil, err
		}
		return decodeBinarySnapshot(data)
	default:
		return nil, fmt.Errorf("collector: unknown codec %v", codec)
	}
	return &s, nil
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

// SaveSnapshot writes s into dir as <ixp>-<date><ext>, creating the
// directory if needed, and returns the file path. The write is atomic
// (temp file + rename): an interrupted save never leaves a truncated
// snapshot where the next collection run would trust it.
func SaveSnapshot(dir string, s *Snapshot, codec Codec) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-%s%s", sanitizeName(s.IXP), s.Date, codec.Ext()))
	if err := AtomicWrite(path, func(w io.Writer) error {
		return WriteSnapshot(w, s, codec)
	}); err != nil {
		return "", err
	}
	return path, nil
}

// LoadSnapshot reads a snapshot file written by SaveSnapshot. The
// codec is auto-detected: a known extension wins, and files with an
// unknown or missing extension are sniffed by magic bytes and content
// (see detectCodec).
func LoadSnapshot(path string) (*Snapshot, error) {
	sr, err := OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	return sr.Snapshot()
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

func sanitizeName(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

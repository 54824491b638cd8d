package collector

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"ixplight/internal/bgp"
)

// ErrConsumed reports a second route walk over a reader whose
// single-shot column cursors are already spent. ForEachRoute and
// Snapshot return it (test with errors.Is); RouteBlock never does —
// its cursors are copied per Scan, so it is the multi-pass consumer.
var ErrConsumed = errors.New("collector: snapshot route block already consumed")

// ErrNotColumnar reports a RouteBlock request against a snapshot that
// is not in the columnar binary codec; callers fall back to
// Snapshot() / ForEachRoute.
var ErrNotColumnar = errors.New("collector: snapshot is not in the columnar binary codec")

// SnapshotReader is the streaming read path over a snapshot file:
// Header() answers the IXP/date/member-list/partial metadata without
// decoding routes, and ForEachRoute visits routes one at a time
// without materialising a []bgp.Route. For CodecBinary files only the
// header section is parsed at open time; the other codecs cannot be
// partially decoded (their reflection decoders produce the whole
// value at once), so OpenSnapshot falls back to an eager full decode
// and serves the same interface over it.
type SnapshotReader struct {
	codec  Codec
	closer io.Closer

	// Binary streaming state.
	br       *bufio.Reader
	header   *Snapshot
	rb       *binaryRoutes
	counter  *countingReader
	size     int64 // total encoded size when known (file stat), else -1
	consumed bool

	// Buffer mode (NewSnapshotReaderBytes / OpenSnapshotAt): the whole
	// encoded snapshot as one byte slice — possibly an mmap'd file —
	// decoded in place with no bufio layer. block caches the raw route
	// block bytes once located (aliasing buf in buffer mode, read once
	// from br in stream mode) so RouteBlock and ForEachRoute/Snapshot
	// can each decode from it independently.
	buf   []byte
	block []byte

	// Eager fallback for the non-binary codecs, and the cache once
	// Snapshot() has materialised a binary file.
	full *Snapshot
}

// OpenSnapshot opens a snapshot file for streaming reads, deducing
// the codec from the file extension with a magic-byte and content
// sniff for unknown extensions (so renamed or extensionless files
// still load). The caller must Close the reader.
func OpenSnapshot(path string) (*SnapshotReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sr, err := NewSnapshotReader(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	sr.closer = f
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		sr.size = fi.Size()
	}
	return sr, nil
}

// NewSnapshotReader is OpenSnapshot over any reader. pathHint may be
// empty; when it carries a known snapshot extension the codec is
// taken from it, otherwise the content is sniffed. The caller owns r;
// Close only closes what OpenSnapshot itself opened.
func NewSnapshotReader(r io.Reader, pathHint string) (*SnapshotReader, error) {
	counter := &countingReader{r: r}
	br := bufio.NewReaderSize(counter, 1<<16)
	codec, err := detectCodec(br, pathHint)
	if err != nil {
		return nil, err
	}
	sr := &SnapshotReader{codec: codec, br: br, counter: counter, size: -1}
	if codec != CodecBinary {
		// Eager fallback: decode everything now, stream from memory.
		tel := codecTel()
		t0 := tel.now()
		full, err := readSnapshot(br, codec)
		if err != nil {
			return nil, err
		}
		tel.decoded(codec, t0, counter.n, len(full.Routes))
		sr.full = full
		sr.header = headerOnly(full)
		return sr, nil
	}
	// Binary: parse magic + version + the length-prefixed header
	// section only.
	head, err := readBinaryPreamble(br)
	if err != nil {
		return nil, err
	}
	sr.header = head
	return sr, nil
}

// OpenSnapshotAt opens a snapshot file for random-access reads over
// its raw bytes: on linux the file is mmap'd read-only (a multi-GB
// dataset directory never fully resides in heap — pages fault in as
// the columns are walked and drop out under memory pressure), with a
// whole-file read fallback elsewhere. The returned reader serves the
// same interface as OpenSnapshot plus zero-copy RouteBlock access.
// Close unmaps the file: the RouteBlock, its intern tables and any
// arena-free decode results must not be used after Close.
func OpenSnapshotAt(path string) (*SnapshotReader, error) {
	data, closer, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	sr, err := NewSnapshotReaderBytes(data, path)
	if err != nil {
		closer.Close()
		return nil, err
	}
	sr.closer = closer
	return sr, nil
}

// NewSnapshotReaderBytes is NewSnapshotReader over an in-memory
// encoded snapshot. For CodecBinary the bytes are decoded in place —
// the header is parsed immediately and the route block aliases data
// with no copy — so data must stay immutable and alive for the
// reader's lifetime. The other codecs fall back to an eager decode,
// exactly like NewSnapshotReader.
func NewSnapshotReaderBytes(data []byte, pathHint string) (*SnapshotReader, error) {
	br := bufio.NewReaderSize(bytes.NewReader(data), 1<<12)
	codec, err := detectCodec(br, pathHint)
	if err != nil {
		return nil, err
	}
	sr := &SnapshotReader{codec: codec, buf: data, size: int64(len(data))}
	if codec != CodecBinary {
		tel := codecTel()
		t0 := tel.now()
		full, err := readSnapshot(bytes.NewReader(data), codec)
		if err != nil {
			return nil, err
		}
		tel.decoded(codec, t0, int64(len(data)), len(full.Routes))
		sr.full = full
		sr.header = headerOnly(full)
		return sr, nil
	}
	r := &breader{b: data}
	head, err := decodeBinaryHeader(r)
	if err != nil {
		return nil, err
	}
	sr.header = head
	sr.block = data[r.off:]
	return sr, nil
}

// readBinaryPreamble consumes the magic, version and header section
// from a buffered binary stream.
func readBinaryPreamble(br *bufio.Reader) (*Snapshot, error) {
	var magic [len(binaryMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != binaryMagic {
		return nil, fmt.Errorf("collector: not a binary snapshot (bad magic)")
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, errBinaryTruncated
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("collector: unsupported binary snapshot version %d (want %d)", version, binaryVersion)
	}
	hdrLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, errBinaryTruncated
	}
	const maxHeader = 1 << 30 // corrupt length-prefix guard
	if hdrLen > maxHeader {
		return nil, errBinaryTruncated
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, errBinaryTruncated
	}
	return decodeHeaderSection(&breader{b: hdr})
}

// Codec reports the codec the file was detected as.
func (sr *SnapshotReader) Codec() Codec { return sr.codec }

// Header returns the snapshot metadata — IXP, date, members, filtered
// count, partial flag and member errors — with Routes left nil. The
// returned value is shared; callers must not mutate it.
func (sr *SnapshotReader) Header() *Snapshot { return sr.header }

// blockHint estimates the unread byte count — file size (or the
// source reader's own Len) minus what the counter has consumed, plus
// what sits in the bufio buffer — so loadBlock can allocate the route
// block in one shot instead of through io.ReadAll's doubling growth.
func (sr *SnapshotReader) blockHint() int {
	rem := -1
	if sr.size >= 0 {
		rem = int(sr.size - sr.counter.n)
	} else if n := sr.counter.Len(); n >= 0 {
		rem = n
	}
	if rem < 0 {
		return -1
	}
	return rem + sr.br.Buffered()
}

// blockBytes returns the raw route-block bytes, reading the rest of
// the stream on first use (buffer-mode readers located them at open
// with no copy). The cache is what lifts the read side of the
// single-shot restriction: RouteBlock and the materializing paths can
// each decode from it independently.
func (sr *SnapshotReader) blockBytes() ([]byte, error) {
	if sr.block == nil {
		rest, err := readAllHint(sr.br, sr.blockHint())
		if err != nil {
			return nil, err
		}
		if rest == nil {
			rest = []byte{}
		}
		sr.block = rest
	}
	return sr.block, nil
}

// bytesRead reports the encoded bytes consumed so far, for the codec
// decode telemetry (buffer-mode readers have no counting reader).
func (sr *SnapshotReader) bytesRead() int64 {
	if sr.counter != nil {
		return sr.counter.n
	}
	return sr.size
}

// loadBlock parses the binary route block: intern tables into arena
// slabs, column cursors positioned at route zero.
func (sr *SnapshotReader) loadBlock() error {
	if sr.rb != nil {
		return nil
	}
	rest, err := sr.blockBytes()
	if err != nil {
		return err
	}
	rb, err := decodeBinaryRoutes(&breader{b: rest})
	if err != nil {
		return err
	}
	sr.rb = rb
	return nil
}

// RouteBlock exposes the columnar route block — intern tables plus a
// re-scannable row cursor — without assembling a single bgp.Route.
// Only CodecBinary snapshots are columnar; other codecs return
// ErrNotColumnar and the caller falls back to Snapshot(). Unlike
// ForEachRoute the result is multi-pass (Scan copies the column
// cursors, so it can run any number of times) and does not consume
// the reader: Snapshot() still works afterwards.
//
// With a non-nil arena the tables are decoded into its reusable
// slabs, and the block plus everything reachable from it dies at the
// arena's next decode. With a nil arena the block owns fresh storage
// but still aliases the reader's raw block bytes — for a reader from
// OpenSnapshotAt that is the mmap'd file, so the block also dies at
// sr.Close.
func (sr *SnapshotReader) RouteBlock(a *Arena) (*RouteBlock, error) {
	if sr.codec != CodecBinary {
		return nil, ErrNotColumnar
	}
	rest, err := sr.blockBytes()
	if err != nil {
		return nil, err
	}
	rb, err := decodeBinaryRoutesArena(&breader{b: rest}, a)
	if err != nil {
		return nil, err
	}
	b := &RouteBlock{rb: rb}
	if a != nil {
		b.prefix = a.prefix[:0]
		b.arena = a
	}
	return b, nil
}

// ForEachRoute decodes routes in file order, calling fn for each; a
// non-nil error from fn stops the walk and is returned. On a binary
// file the routes are decoded one at a time straight off the columns
// — no []bgp.Route is ever materialised — so a dataset-wide scan
// holds one route plus the intern tables, not the whole snapshot.
// The column walk is single-shot: call ForEachRoute once, or use
// Snapshot() when the full slice is needed. Decoded routes alias the
// snapshot's interned tables; treat them as immutable (Clone before
// mutating), the contract every snapshot consumer already follows.
func (sr *SnapshotReader) ForEachRoute(fn func(bgp.Route) error) error {
	if sr.full != nil {
		for i := range sr.full.Routes {
			if err := fn(sr.full.Routes[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if sr.consumed {
		return ErrConsumed
	}
	if err := sr.loadBlock(); err != nil {
		return err
	}
	sr.consumed = true
	tel := codecTel()
	t0 := tel.now()
	if !sr.rb.isNil {
		for i := 0; i < sr.rb.n; i++ {
			r, err := sr.rb.next()
			if err != nil {
				return err
			}
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	tel.decoded(CodecBinary, t0, sr.bytesRead(), sr.rb.n)
	return nil
}

// Snapshot materialises the complete snapshot (header + routes).
func (sr *SnapshotReader) Snapshot() (*Snapshot, error) {
	if sr.full != nil {
		return sr.full, nil
	}
	if sr.consumed {
		return nil, ErrConsumed
	}
	if err := sr.loadBlock(); err != nil {
		return nil, err
	}
	sr.consumed = true
	tel := codecTel()
	t0 := tel.now()
	s := *sr.header
	if !sr.rb.isNil {
		s.Routes = make([]bgp.Route, sr.rb.n)
		for i := range s.Routes {
			var err error
			if s.Routes[i], err = sr.rb.next(); err != nil {
				return nil, err
			}
		}
	}
	sr.full = &s
	tel.decoded(CodecBinary, t0, sr.bytesRead(), len(s.Routes))
	return sr.full, nil
}

// Close releases the underlying file (no-op for NewSnapshotReader).
func (sr *SnapshotReader) Close() error {
	if sr.closer == nil {
		return nil
	}
	return sr.closer.Close()
}

// headerOnly shallow-copies a snapshot with its Routes detached.
func headerOnly(s *Snapshot) *Snapshot {
	h := *s
	h.Routes = nil
	return &h
}

// errGobRemoved answers files of the gob codec this package once
// wrote: they are named, not fed to another decoder.
var errGobRemoved = errors.New("collector: the gob snapshot codec was removed; re-encode the file as binary or json")

// detectCodec deduces a snapshot file's codec: a known extension wins
// (SaveSnapshot always writes one), then the CodecBinary magic, then
// a content sniff that tells JSON from gzipped JSON. Anything else —
// which is what a gob stream looks like — is an error.
func detectCodec(br *bufio.Reader, path string) (Codec, error) {
	switch {
	case hasSuffix(path, ".json.gz"):
		return CodecJSONGzip, nil
	case hasSuffix(path, ".json"):
		return CodecJSON, nil
	case hasSuffix(path, ".gob.gz"), hasSuffix(path, ".gob"):
		return 0, errGobRemoved
	case hasSuffix(path, ".bin"):
		return CodecBinary, nil
	}
	head, err := br.Peek(4)
	if len(head) == 0 {
		return 0, fmt.Errorf("collector: cannot detect snapshot codec: %w", err)
	}
	if string(head) == binaryMagic {
		return CodecBinary, nil
	}
	if head[0] == '{' {
		return CodecJSON, nil
	}
	if len(head) >= 2 && head[0] == 0x1f && head[1] == 0x8b {
		// Gzip: peek a window and sniff the decompressed first byte.
		chunk, _ := br.Peek(4096)
		zr, err := gzip.NewReader(bytes.NewReader(chunk))
		if err != nil {
			return 0, fmt.Errorf("collector: cannot detect snapshot codec: %w", err)
		}
		var first [1]byte
		n, _ := zr.Read(first[:])
		zr.Close()
		if n == 1 && first[0] == '{' {
			return CodecJSONGzip, nil
		}
	}
	return 0, fmt.Errorf("collector: cannot detect snapshot codec: neither binary nor JSON; if this was a gob snapshot: %w", errGobRemoved)
}

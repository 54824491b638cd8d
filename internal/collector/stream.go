package collector

import (
	"crypto/sha256"
	"io"
)

// SnapshotReader is the one read path over a full snapshot: the whole
// CodecBinary encoding as one byte slice — an mmap'd file or bytes the
// caller holds — decoded in place. Opening parses the header section
// only; the route block is decoded when RouteBlock or Snapshot asks,
// each call from the same immutable bytes, so a reader can be walked
// any number of times and in any order.
type SnapshotReader struct {
	closer io.Closer
	buf    []byte // the whole encoding
	header *Snapshot
	block  []byte // the route block, aliasing buf
	// digest is Digest's memo, valid once hashed is set.
	digest [sha256.Size]byte
	hashed bool
}

// OpenSnapshotAt opens a snapshot file: on linux the file is mmap'd
// read-only (a multi-GB dataset directory never fully resides in heap —
// pages fault in as the columns are walked and drop out under memory
// pressure), with a whole-file read fallback elsewhere. A file is a
// snapshot if and only if it starts with the binary magic; its name is
// not consulted. The caller must Close the reader, which unmaps the
// file: a RouteBlock must not be scanned after that. Header() and
// everything Snapshot() returned stay valid.
func OpenSnapshotAt(path string) (*SnapshotReader, error) {
	data, closer, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	sr, err := NewSnapshotReaderBytes(data)
	if err != nil {
		closer.Close()
		return nil, err
	}
	sr.closer = closer
	return sr, nil
}

// NewSnapshotReaderBytes is OpenSnapshotAt over an in-memory encoded
// snapshot. The route block aliases data with no copy, so data must
// stay immutable and alive for as long as a RouteBlock is scanned.
func NewSnapshotReaderBytes(data []byte) (*SnapshotReader, error) {
	r := &breader{b: data}
	head, err := decodeBinaryHeader(r)
	if err != nil {
		return nil, err
	}
	return &SnapshotReader{buf: data, header: head, block: data[r.off:]}, nil
}

// Header returns the snapshot metadata — IXP, date, members, filtered
// count, partial flag and member errors — with Routes left nil. The
// returned value is shared; callers must not mutate it.
func (sr *SnapshotReader) Header() *Snapshot { return sr.header }

// Digest returns the sha256 of the encoding: the file's SnapshotDigest.
// The bytes are hashed once per reader, whoever asks first.
func (sr *SnapshotReader) Digest() [sha256.Size]byte {
	if !sr.hashed {
		sr.digest, sr.hashed = sha256.Sum256(sr.buf), true
	}
	return sr.digest
}

// RouteBlock exposes the columnar route block — intern tables plus a
// re-scannable row walk — without assembling a single bgp.Route.
func (sr *SnapshotReader) RouteBlock() (*RouteBlock, error) {
	return decodeRouteBlock(&breader{b: sr.block})
}

// Snapshot materialises the complete snapshot (header + routes). The
// routes alias the decoded intern tables, never the encoded bytes, so
// the result outlives the reader; treat them as immutable (Clone before
// mutating), the contract every snapshot consumer already follows.
func (sr *SnapshotReader) Snapshot() (*Snapshot, error) {
	rb, err := sr.RouteBlock()
	if err != nil {
		return nil, err
	}
	s := *sr.header
	if s.Routes, err = rb.routes(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Close releases the underlying file (a no-op for
// NewSnapshotReaderBytes).
func (sr *SnapshotReader) Close() error {
	if sr.closer == nil {
		return nil
	}
	return sr.closer.Close()
}

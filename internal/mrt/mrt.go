// Package mrt reads and writes MRT TABLE_DUMP_V2 RIB archives
// (RFC 6396) — the format RouteViews and RIPE RIS publish their
// collector snapshots in. It gives this laboratory's snapshots the
// same interchange format real measurement pipelines consume, and
// powers the collector-visibility experiment: an ixplight snapshot can
// be dumped exactly as a route collector would have archived it.
//
// Supported records: PEER_INDEX_TABLE plus RIB_IPV4_UNICAST and
// RIB_IPV6_UNICAST entries, with 4-byte peer ASNs.
package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
)

// MRT record constants (RFC 6396).
const (
	typeTableDumpV2 = 13

	subtypePeerIndexTable = 1
	subtypeRIBIPv4Unicast = 2
	subtypeRIBIPv6Unicast = 4

	peerFlagIPv6   = 0x01
	peerFlagAS4    = 0x02
	maxRecordLen   = 1 << 24 // sanity bound against corrupted headers
	collectorBGPID = 0xC0000201
)

// ErrTruncated reports a record cut short.
var ErrTruncated = errors.New("mrt: truncated record")

// writeRecord emits one MRT record with the common header.
func writeRecord(w io.Writer, ts uint32, subtype uint16, body []byte) error {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], ts)
	binary.BigEndian.PutUint16(hdr[4:6], typeTableDumpV2)
	binary.BigEndian.PutUint16(hdr[6:8], subtype)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// WriteRIB dumps a snapshot as a TABLE_DUMP_V2 archive: one
// PEER_INDEX_TABLE followed by one RIB entry record per route. The
// snapshot date (midnight UTC) stamps every record.
func WriteRIB(w io.Writer, snap *collector.Snapshot) error {
	ts, err := timestampOf(snap)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)

	// Peer index: one entry per member (its v4 LAN address when it has
	// one, the v6 address otherwise).
	if len(snap.Members) > math.MaxUint16 {
		return fmt.Errorf("mrt: %d members exceed the peer index's %d entries", len(snap.Members), math.MaxUint16)
	}
	peerIdx := make(map[uint32]uint16, len(snap.Members))
	var body []byte
	body = binary.BigEndian.AppendUint32(body, collectorBGPID)
	view := []byte(snap.IXP)
	if len(view) > math.MaxUint16 {
		return fmt.Errorf("mrt: view name of %d bytes exceeds %d", len(view), math.MaxUint16)
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(view)))
	body = append(body, view...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(snap.Members)))
	for i, m := range snap.Members {
		peerIdx[m.ASN] = uint16(i)
		body = append(body, peerFlagAS4)
		body = binary.BigEndian.AppendUint32(body, m.ASN) // BGP ID := ASN (synthetic)
		body = append(body, 0, 0, 0, 0)                   // peer IP (unused downstream)
		body = binary.BigEndian.AppendUint32(body, m.ASN)
	}
	if err := writeRecord(bw, ts, subtypePeerIndexTable, body); err != nil {
		return err
	}

	for seq, r := range snap.Routes {
		idx, ok := peerIdx[r.PeerAS()]
		if !ok {
			return fmt.Errorf("mrt: route %s announced by non-member AS%d", r.Prefix, r.PeerAS())
		}
		attrs, err := bgp.MarshalRIBAttributes(r)
		if err != nil {
			return fmt.Errorf("mrt: route %s: %w", r.Prefix, err)
		}
		if len(attrs) > math.MaxUint16 {
			return fmt.Errorf("mrt: route %s: %d attribute bytes exceed %d", r.Prefix, len(attrs), math.MaxUint16)
		}
		var entry []byte
		entry = binary.BigEndian.AppendUint32(entry, uint32(seq))
		entry = append(entry, byte(r.Prefix.Bits()))
		nbytes := (r.Prefix.Bits() + 7) / 8
		if r.Prefix.Addr().Is4() {
			a := r.Prefix.Addr().As4()
			entry = append(entry, a[:nbytes]...)
		} else {
			a := r.Prefix.Addr().As16()
			entry = append(entry, a[:nbytes]...)
		}
		entry = binary.BigEndian.AppendUint16(entry, 1) // one RIB entry
		entry = binary.BigEndian.AppendUint16(entry, idx)
		entry = binary.BigEndian.AppendUint32(entry, ts)
		entry = binary.BigEndian.AppendUint16(entry, uint16(len(attrs)))
		entry = append(entry, attrs...)

		subtype := uint16(subtypeRIBIPv4Unicast)
		if r.IsIPv6() {
			subtype = subtypeRIBIPv6Unicast
		}
		if err := writeRecord(bw, ts, subtype, entry); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func timestampOf(snap *collector.Snapshot) (uint32, error) {
	day, err := snap.Day()
	if err != nil {
		return 0, fmt.Errorf("mrt: bad snapshot date %q: %v", snap.Date, err)
	}
	return uint32(day.Unix()), nil
}

// ReadRIB parses a TABLE_DUMP_V2 archive back into a snapshot. Member
// address-family flags are reconstructed from the routes (the peer
// index does not carry them); members with no routes keep both flags
// set, the conservative reading.
func ReadRIB(r io.Reader) (*collector.Snapshot, error) {
	br := bufio.NewReader(r)
	snap := &collector.Snapshot{}
	var peers []collector.Member
	sawIndex := false

	for recNo := 0; ; recNo++ {
		var hdr [12]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF && recNo > 0 {
				break
			}
			if err == io.EOF {
				return nil, errors.New("mrt: empty archive")
			}
			return nil, ErrTruncated
		}
		ts := binary.BigEndian.Uint32(hdr[0:4])
		typ := binary.BigEndian.Uint16(hdr[4:6])
		subtype := binary.BigEndian.Uint16(hdr[6:8])
		length := binary.BigEndian.Uint32(hdr[8:12])
		if length > maxRecordLen {
			return nil, fmt.Errorf("mrt: record %d: implausible length %d", recNo, length)
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, ErrTruncated
		}
		if typ != typeTableDumpV2 {
			continue // tolerate foreign record types
		}
		switch subtype {
		case subtypePeerIndexTable:
			ixp, ps, err := parsePeerIndex(body)
			if err != nil {
				return nil, fmt.Errorf("mrt: record %d: %w", recNo, err)
			}
			snap.IXP = ixp
			snap.Date = time.Unix(int64(ts), 0).UTC().Format("2006-01-02")
			peers = ps
			sawIndex = true
		case subtypeRIBIPv4Unicast, subtypeRIBIPv6Unicast:
			if !sawIndex {
				return nil, fmt.Errorf("mrt: record %d: RIB entry before peer index", recNo)
			}
			routes, err := parseRIBEntry(body, subtype == subtypeRIBIPv6Unicast, peers)
			if err != nil {
				return nil, fmt.Errorf("mrt: record %d: %w", recNo, err)
			}
			snap.Routes = append(snap.Routes, routes...)
		}
	}
	if !sawIndex {
		return nil, errors.New("mrt: no peer index table")
	}
	snap.Members = reconstructMembers(peers, snap.Routes)
	snap.Normalize()
	return snap, nil
}

func parsePeerIndex(body []byte) (string, []collector.Member, error) {
	if len(body) < 8 {
		return "", nil, ErrTruncated
	}
	viewLen := int(binary.BigEndian.Uint16(body[4:6]))
	if len(body) < 6+viewLen+2 {
		return "", nil, ErrTruncated
	}
	view := string(body[6 : 6+viewLen])
	off := 6 + viewLen
	count := int(binary.BigEndian.Uint16(body[off : off+2]))
	off += 2
	peers := make([]collector.Member, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < off+1 {
			return "", nil, ErrTruncated
		}
		flags := body[off]
		off++
		addrLen := 4
		if flags&peerFlagIPv6 != 0 {
			addrLen = 16
		}
		asLen := 2
		if flags&peerFlagAS4 != 0 {
			asLen = 4
		}
		need := 4 + addrLen + asLen
		if len(body) < off+need {
			return "", nil, ErrTruncated
		}
		off += 4 + addrLen // skip BGP ID and peer address
		var asn uint32
		if asLen == 4 {
			asn = binary.BigEndian.Uint32(body[off : off+4])
		} else {
			asn = uint32(binary.BigEndian.Uint16(body[off : off+2]))
		}
		off += asLen
		peers = append(peers, collector.Member{ASN: asn, Name: fmt.Sprintf("AS%d", asn)})
	}
	return view, peers, nil
}

func parseRIBEntry(body []byte, v6 bool, peers []collector.Member) ([]bgp.Route, error) {
	if len(body) < 5 {
		return nil, ErrTruncated
	}
	bits := int(body[4])
	maxBits := 32
	if v6 {
		maxBits = 128
	}
	if bits > maxBits {
		return nil, fmt.Errorf("prefix length %d exceeds %d", bits, maxBits)
	}
	nbytes := (bits + 7) / 8
	if len(body) < 5+nbytes+2 {
		return nil, ErrTruncated
	}
	var addr netip.Addr
	if v6 {
		var a [16]byte
		copy(a[:], body[5:5+nbytes])
		addr = netip.AddrFrom16(a)
	} else {
		var a [4]byte
		copy(a[:], body[5:5+nbytes])
		addr = netip.AddrFrom4(a)
	}
	prefix := netip.PrefixFrom(addr, bits)
	off := 5 + nbytes
	count := int(binary.BigEndian.Uint16(body[off : off+2]))
	off += 2

	routes := make([]bgp.Route, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < off+8 {
			return nil, ErrTruncated
		}
		idx := int(binary.BigEndian.Uint16(body[off : off+2]))
		attrLen := int(binary.BigEndian.Uint16(body[off+6 : off+8]))
		off += 8
		if len(body) < off+attrLen {
			return nil, ErrTruncated
		}
		if idx >= len(peers) {
			return nil, fmt.Errorf("peer index %d out of range (%d peers)", idx, len(peers))
		}
		r := bgp.Route{Prefix: prefix}
		if err := bgp.UnmarshalRIBAttributes(body[off:off+attrLen], &r); err != nil {
			return nil, err
		}
		off += attrLen
		// The snapshot model identifies the announcer by the AS path's
		// first hop; an archive whose path head disagrees with the peer
		// index is inconsistent.
		if r.PeerAS() != peers[idx].ASN {
			return nil, fmt.Errorf("AS path head %d disagrees with peer index entry AS%d",
				r.PeerAS(), peers[idx].ASN)
		}
		routes = append(routes, r)
	}
	return routes, nil
}

// reconstructMembers derives per-family flags from the routes each
// member announced; members with no routes keep both families.
func reconstructMembers(peers []collector.Member, routes []bgp.Route) []collector.Member {
	hasV4 := make(map[uint32]bool)
	hasV6 := make(map[uint32]bool)
	announced := make(map[uint32]bool)
	for _, r := range routes {
		announced[r.PeerAS()] = true
		if r.IsIPv6() {
			hasV6[r.PeerAS()] = true
		} else {
			hasV4[r.PeerAS()] = true
		}
	}
	out := make([]collector.Member, len(peers))
	for i, p := range peers {
		p.IPv4 = hasV4[p.ASN] || !announced[p.ASN]
		p.IPv6 = hasV6[p.ASN] || !announced[p.ASN]
		out[i] = p
	}
	return out
}

// Package aodv implements the Ad hoc On-demand Distance Vector routing
// protocol subset the paper's black-hole case study (§5.1) exercises:
// RREQ flooding with destination sequence numbers, destination-generated
// RREPs unicast along the reverse path, route expiry, RERR on broken
// links, plus the black-hole adversary and the inner-circle RREP defense
// of Fig. 6.
//
// Deviations from RFC 3561, chosen to match the paper's presentation:
// destination-only RREPs (no intermediate-node replies — Fig. 6 shows the
// destination replying and forwarders propagating), no expanding-ring
// search, and no HELLO messages (the Secure Topology Service provides
// neighbourhood liveness).
package aodv

import (
	"encoding/binary"
	"fmt"

	"innercircle/internal/link"
)

// RREQ is a route request, flooded toward the destination. Its hop count
// is the envelope's (link.Env.Hops): every forwarder re-sends the request
// it received unchanged.
type RREQ struct {
	Orig     link.NodeID
	OrigSeq  uint32
	Dst      link.NodeID
	DstSeq   uint32
	SeqKnown bool // whether DstSeq is meaningful
	ID       uint32
}

// Size implements link.Message. It counts RFC 3561's hop-count field,
// which travels in the envelope.
func (RREQ) Size() int { return 24 }

// RREP is a route reply, unicast hop by hop along the reverse path. In the
// inner-circle configuration every RREP hop is voted on before the next
// node accepts it.
type RREP struct {
	Orig     link.NodeID // requester the reply travels toward
	Dst      link.NodeID // route destination (the replier)
	DstSeq   uint32
	HopCount int
	// NextHop is the node designated to process this RREP next; it is
	// part of the voted value in the inner-circle defense (Fig. 6).
	NextHop link.NodeID
}

// Size implements link.Message.
func (RREP) Size() int { return 20 }

// RERR reports an unreachable destination to upstream nodes. SeqKnown is
// false when the reporter had no sequence information for the destination
// (it is then treated as applicable regardless of the receiver's entry).
type RERR struct {
	Dst      link.NodeID
	DstSeq   uint32
	SeqKnown bool
}

// Size implements link.Message.
func (RERR) Size() int { return 12 }

// Data is an application payload routed over AODV. The hops it has
// travelled are the envelope's count (link.Env.Hops).
type Data struct {
	Src     link.NodeID
	Dst     link.NodeID
	Seq     uint64
	Payload any
	Bytes   int
}

// Size implements link.Message.
func (d Data) Size() int { return d.Bytes }

// EncodeRREP serializes an RREP into the byte value that the inner-circle
// voting protocol signs; layout is fixed so every voter and remote
// recipient derives identical bytes.
func EncodeRREP(r RREP) []byte {
	buf := make([]byte, 40)
	binary.BigEndian.PutUint64(buf[0:], uint64(r.Orig))
	binary.BigEndian.PutUint64(buf[8:], uint64(r.Dst))
	binary.BigEndian.PutUint32(buf[16:], r.DstSeq)
	binary.BigEndian.PutUint32(buf[20:], uint32(r.HopCount))
	binary.BigEndian.PutUint64(buf[24:], uint64(r.NextHop))
	return buf
}

// DecodeRREP reverses EncodeRREP. It is strict: it accepts exactly the
// values EncodeRREP produces, so one RREP has one voted value. It rejects
// non-zero padding (bytes 32-39) and, where an int is 32 bits, a node ID
// whose high word is not the sign extension of its low word.
func DecodeRREP(b []byte) (RREP, error) {
	if len(b) != 40 {
		return RREP{}, fmt.Errorf("aodv: bad encoded RREP length %d", len(b))
	}
	if binary.BigEndian.Uint64(b[32:]) != 0 {
		return RREP{}, fmt.Errorf("aodv: encoded RREP has non-zero padding")
	}
	orig, ok1 := decodeNodeID(b[0:])
	dst, ok2 := decodeNodeID(b[8:])
	next, ok3 := decodeNodeID(b[24:])
	if !ok1 || !ok2 || !ok3 {
		return RREP{}, fmt.Errorf("aodv: encoded RREP node ID out of range")
	}
	return RREP{
		Orig:     orig,
		Dst:      dst,
		DstSeq:   binary.BigEndian.Uint32(b[16:]),
		HopCount: int(binary.BigEndian.Uint32(b[20:])),
		NextHop:  next,
	}, nil
}

// decodeNodeID reads an 8-byte node ID and reports whether a NodeID holds
// it exactly.
func decodeNodeID(b []byte) (link.NodeID, bool) {
	v := int64(binary.BigEndian.Uint64(b))
	return link.NodeID(v), int64(link.NodeID(v)) == v
}

package vote

import (
	"encoding/binary"

	"innercircle/internal/crypto/thresh"
	"innercircle/internal/link"
)

// Mode selects the voting algorithm.
type Mode int

// Voting modes (Fig. 3).
const (
	Deterministic Mode = iota + 1
	Statistical
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Deterministic:
		return "deterministic"
	case Statistical:
		return "statistical"
	default:
		return "unknown"
	}
}

// headerBytes is the fixed envelope cost assumed for each voting message.
const headerBytes = 20

// SignedValue is one voter's observation, individually signed so the
// center cannot fabricate inner-circle inputs when it assembles the
// statistical propose message.
type SignedValue struct {
	Voter link.NodeID
	Value []byte
	Sig   []byte
}

func (v SignedValue) wireSize() int { return 8 + len(v.Value) + len(v.Sig) }

// SolicitMsg opens a statistical round: the center announces it has a value
// to diffuse and solicits inner-circle observations. Meta carries the
// center's proposed value v_c (application-encoded).
type SolicitMsg struct {
	Center link.NodeID
	Seq    uint64
	L      int
	Meta   []byte
	// Relayed/Relayer support two-hop inner circles: first-ring members
	// re-broadcast the solicitation once, marking themselves as relayer.
	Relayed bool
	Relayer link.NodeID
}

// Size implements link.Message.
func (m SolicitMsg) Size() int { return headerBytes + len(m.Meta) }

// ValueMsg is a voter's reply to a solicit, carrying its signed
// observation.
type ValueMsg struct {
	Center link.NodeID
	Seq    uint64
	Voter  link.NodeID
	Value  []byte
	Sig    []byte
}

// Size implements link.Message.
func (m ValueMsg) Size() int { return headerBytes + len(m.Value) + len(m.Sig) }

// ProposeMsg asks the inner circle to approve a value. In deterministic
// mode Value is the center's original value; in statistical mode Value is
// the fused result and Values carries the signed inputs that justify it.
type ProposeMsg struct {
	Center link.NodeID
	Seq    uint64
	L      int
	Mode   Mode
	Value  []byte
	Values []SignedValue
	// Relayed/Relayer support two-hop inner circles (§3's larger-circle
	// extension): first-ring members re-broadcast the proposal once.
	Relayed bool
	Relayer link.NodeID
}

// Size implements link.Message.
func (m ProposeMsg) Size() int {
	s := headerBytes + len(m.Value)
	for _, v := range m.Values {
		s += v.wireSize()
	}
	return s
}

// AckMsg is a voter's approval: its partial signature over the round
// digest with its share of K_L, and the partial's proof where the scheme
// has one.
type AckMsg struct {
	Center  link.NodeID
	Seq     uint64
	Voter   link.NodeID
	Partial thresh.Partial
}

// Size implements link.Message.
func (m AckMsg) Size() int {
	return headerBytes + 8 + len(m.Partial.Data) + len(m.Partial.Proof)
}

// AgreedMsg is the self-checking output of a completed round: value v,
// dependability level L, and the combined threshold signature σ_KL. Any
// recipient can verify that L+1 nodes of the center's inner circle
// co-signed (§3).
type AgreedMsg struct {
	Center link.NodeID
	Seq    uint64
	L      int
	Value  []byte
	Sig    thresh.Signature
}

// Size implements link.Message.
func (m AgreedMsg) Size() int { return headerBytes + len(m.Value) + m.Sig.WireSize() }

// appendDigest appends the canonical byte string covered by the threshold
// signature, (center, seq, L, value), to buf. Including seq prevents
// cross-round replay of signatures on equal values.
func appendDigest(buf []byte, center link.NodeID, seq uint64, level int, value []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(center))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(level))
	return append(buf, value...)
}

// appendValueDigest appends the byte string covered by a voter's
// individual signature on a statistical value message to buf.
func appendValueDigest(buf []byte, center link.NodeID, seq uint64, voter link.NodeID, value []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(center))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(voter))
	return append(buf, value...)
}

package vote

import (
	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// Byzantine makes a voting service lie. It is the fault-injection hook
// (internal/faults) for the paper's Byzantine-voter class of attacks:
// instead of dropping or mangling traffic on the wire, the node runs the
// protocol but feeds it false inputs. The inner circle is supposed to
// neutralize all three lies — corrupt partials through the center's check
// of every partial on arrival (Stats.PartialsRejected plus permanent
// suspicion), colluding acks because a single voter below the threshold
// cannot complete a signature alone, and false observations through the
// fusion function's outlier tolerance.
type Byzantine struct {
	// CorruptAcks flips one bit of the partial signature in every ack the
	// node sends; the center's partial check rejects each one.
	CorruptAcks bool
	// AckAll approves deterministic proposals even when the application
	// check rejects them (a colluding voter).
	AckAll bool
	// LieValue replaces the node's statistical observation before it is
	// signed and returned to the soliciting center.
	LieValue func(center link.NodeID, meta, value []byte) []byte
	// RNG picks the bits CorruptAcks flips. Required with CorruptAcks.
	RNG *sim.RNG
	// OnLie, if set, is called once per lie told (the injection counter).
	OnLie func()
}

func (b *Byzantine) lie() {
	if b.OnLie != nil {
		b.OnLie()
	}
}

// SetByzantine installs (or, with nil, removes) Byzantine behaviour.
func (s *Service) SetByzantine(b *Byzantine) { s.byz = b }

// flipOneBit returns a copy of data with one RNG-chosen bit inverted.
func flipOneBit(data []byte, rng *sim.RNG) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	bit := rng.Intn(len(out) * 8)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

package vote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"innercircle/internal/crypto/sigcache"
	"innercircle/internal/crypto/thresh"
	"innercircle/internal/icnet"
	"innercircle/internal/link"
	"innercircle/internal/sim"
	"innercircle/internal/sts"
)

// Topology is the slice of the Secure Topology Service the voting service
// consumes.
type Topology interface {
	// IsNeighbor reports whether q is an authenticated timely neighbour.
	IsNeighbor(q link.NodeID) bool
	// NeighborCount returns the size of the current one-hop view.
	NeighborCount() int
	// IsLink reports whether the two-hop view shows p listing q as its
	// neighbour.
	IsLink(p, q link.NodeID) bool
	// IsTwoHop reports whether q is reachable through some neighbour but
	// is not itself a neighbour.
	IsTwoHop(q link.NodeID) bool
	// TwoHopCount returns the number of distinct two-hop nodes.
	TwoHopCount() int
}

// Callbacks are the application-provided Inner-circle Callbacks of Fig. 1.
// Unused entries may be nil.
type Callbacks struct {
	// Check validates the center's proposed value (deterministic voting's
	// application-aware check f). Nil means accept everything.
	Check func(center link.NodeID, value []byte) bool
	// LocalValue returns this node's own observation matching the
	// center's solicitation, or false if it has none (statistical voting).
	LocalValue func(center link.NodeID, meta []byte) ([]byte, bool)
	// Fuse combines the participating values (values[0] is the center's)
	// into the agreed value. It must be deterministic: voters recompute it
	// and require byte equality (statistical voting's fusion function f).
	Fuse func(center link.NodeID, values [][]byte) []byte
	// OnAgreed runs at every inner-circle member (including the center)
	// when a round completes with a valid agreed message.
	OnAgreed func(a AgreedMsg)
	// OnRoundFailed runs at the center when a round ends unsigned: refused
	// for too few neighbours, timed out, or aborted (AbortInFlight).
	OnRoundFailed func(value []byte, reason string)
}

// Config parameterizes the service.
type Config struct {
	Mode Mode
	// L is the dependability level: L neighbour approvals (plus the
	// center's own share) are required.
	L int
	// RoundTimeout bounds one protocol attempt at the center.
	RoundTimeout sim.Duration
	// Retries is how many times the center re-solicits/re-proposes before
	// declaring failure.
	Retries int
	// TwoHop widens the inner circle to all nodes within two hops (§3's
	// larger-circle extension): first-ring members relay the round's
	// messages outward and the replies back, trading extra local traffic
	// for a larger approval pool.
	TwoHop bool
}

// Deps wires the service into a node.
type Deps struct {
	ID   link.NodeID
	K    *sim.Kernel
	Link *link.Service
	Topo Topology
	Ring PublicRing
	Keys NodeKeys
	Susp *icnet.SuspicionManager
	// Auth is the node's individual authenticator, the one its topology
	// service signs beacons with: it signs this node's statistical value
	// messages and verifies other voters' by their node ID.
	Auth sts.Auth
	// Crypto models signing/verification latency and energy (zero value:
	// instantaneous and free). Energy receives the per-operation charges;
	// may be nil.
	Crypto CryptoProfile
	Energy EnergySink
	// Memo, when non-nil, memoizes verification verdicts (a pure function
	// of key, message, and signature). It is shared by all nodes of one
	// replica — an agreed message flooded to m nodes is verified once —
	// and never crosses replicas. Modeled verification energy and delay
	// are still charged per node on every check, so experiment tables are
	// identical with the memo on or off; only wall-clock time changes.
	Memo *sigcache.Cache
}

// Stats counts voting activity.
type Stats struct {
	// RoundsStarted counts Propose calls. Each round ends once, agreed or
	// failed, so RoundsStarted = RoundsAgreed + RoundsFailed + the rounds
	// still in flight.
	RoundsStarted   uint64
	RoundsAgreed    uint64
	RoundsFailed    uint64
	AcksSent        uint64
	ValuesSent      uint64
	ChecksRejected  uint64
	AgreedDelivered uint64
	AgreedInvalid   uint64
	// PartialsRejected counts acks whose partial signature failed the
	// center's check on arrival (GroupKey.VerifyPartial): each is a
	// Byzantine voter neutralized and permanently suspected.
	PartialsRejected uint64
	// MemoHits counts signature verifications answered from the shared
	// verification memo (each one is a modular exponentiation avoided);
	// MemoMisses counts verifications actually performed and memoized.
	// Both stay zero when Deps.Memo is nil.
	MemoHits   uint64
	MemoMisses uint64
}

// roundState is the center's per-round bookkeeping.
type roundState struct {
	seq   uint64
	value []byte // current value (original, or fused once computed)
	// acks holds the verified partials, one per voter, in ascending voter
	// order: tryComplete hands them to Combine in that order after the
	// center's own, so which co-signers a combine picks depends on who
	// acked, not on the order the acks arrived in.
	acks []voterAck
	// values holds a statistical round's collected voter inputs, one per
	// voter, in arrival order.
	values  []SignedValue
	timer   *sim.Timer
	retries int
	// proposing is false while a statistical round is still collecting
	// values; deterministic rounds start in the proposing phase.
	proposing bool
	done      bool
}

// voterAck is one voter's verified partial signature.
type voterAck struct {
	voter   link.NodeID
	partial thresh.Partial
}

// ackPos returns the index of voter's ack in r.acks, or the index where
// it belongs, and whether it is there. A round holds at most a few more
// acks than its level, so a scan is enough.
func (r *roundState) ackPos(voter link.NodeID) (int, bool) {
	for i, a := range r.acks {
		if a.voter >= voter {
			return i, a.voter == voter
		}
	}
	return len(r.acks), false
}

// hasValue reports whether voter's value is already collected.
func (r *roundState) hasValue(voter link.NodeID) bool {
	return slices.ContainsFunc(r.values, func(sv SignedValue) bool { return sv.Voter == voter })
}

// Service is one node's inner-circle voting service.
type Service struct {
	cfg  Config
	deps Deps

	nextSeq uint64
	rounds  map[uint64]*roundState
	// voter-side dedup: latest seq acked per center.
	ackedSeq map[link.NodeID]uint64
	// two-hop relay dedup.
	relayed map[relayKey]bool
	// agreed messages already delivered (center+seq), to suppress
	// duplicates from re-broadcasts.
	delivered link.SeenSet
	// scratch holds the digest the last digest or valueDigest call built.
	scratch []byte

	cbs Callbacks

	// byz, when non-nil, makes this node lie (fault injection).
	byz *Byzantine

	// Stats exposes counters to the experiment harness.
	Stats Stats
}

// relayKey names one voter's reply to one round: it deduplicates two-hop
// relaying of acks and value messages.
type relayKey struct {
	center link.NodeID
	seq    uint64
	voter  link.NodeID
	kind   byte // kindAck or kindValue
}

// Reply kinds: an ack answers a proposal, a value message a solicitation.
const (
	kindAck   byte = 'a'
	kindValue byte = 'v'
)

// digest returns the round digest (see appendDigest) in the service's
// scratch buffer, valueDigest a value message's. The bytes are borrowed:
// they stay valid until this service's next digest or valueDigest call,
// and every consumer — a Signer's PartialSign, a GroupKey's VerifyPartial,
// Combine and Verify, an Auth's Sign and Verify, sigcache.HashParts — reads
// them during the call and keeps none of them.
func (s *Service) digest(center link.NodeID, seq uint64, level int, value []byte) []byte {
	s.scratch = appendDigest(s.scratch[:0], center, seq, level, value)
	return s.scratch
}

func (s *Service) valueDigest(center link.NodeID, seq uint64, voter link.NodeID, value []byte) []byte {
	s.scratch = appendValueDigest(s.scratch[:0], center, seq, voter, value)
	return s.scratch
}

// Common service errors.
var (
	ErrNoLevelKey  = errors.New("vote: no key for dependability level")
	ErrNotNeighbor = errors.New("vote: sender is not an authenticated neighbour")
)

// New validates configuration and returns a service.
func New(cfg Config, deps Deps, cbs Callbacks) (*Service, error) {
	if cfg.Mode != Deterministic && cfg.Mode != Statistical {
		return nil, fmt.Errorf("vote: invalid mode %d", cfg.Mode)
	}
	if cfg.L < 1 {
		return nil, fmt.Errorf("vote: dependability level must be >= 1, got %d", cfg.L)
	}
	if cfg.RoundTimeout <= 0 {
		return nil, fmt.Errorf("vote: round timeout must be positive")
	}
	if deps.Ring == nil || deps.Keys == nil {
		return nil, fmt.Errorf("vote: key ring and node keys are required")
	}
	if _, ok := deps.Ring[cfg.L]; !ok {
		return nil, fmt.Errorf("%w: L=%d", ErrNoLevelKey, cfg.L)
	}
	if cfg.Mode == Statistical && deps.Auth == nil {
		return nil, fmt.Errorf("vote: statistical mode requires Auth")
	}
	return &Service{
		cfg:      cfg,
		deps:     deps,
		cbs:      cbs,
		rounds:   make(map[uint64]*roundState),
		ackedSeq: make(map[link.NodeID]uint64),
		relayed:  make(map[relayKey]bool),
	}, nil
}

// Propose starts a voting round with this node as center, to get value
// agreed by L inner-circle neighbours. In deterministic mode the value is
// proposed as-is; in statistical mode the round first solicits the inner
// circle's own observations and fuses them.
func (s *Service) Propose(value []byte) error {
	s.Stats.RoundsStarted++
	circle := s.deps.Topo.NeighborCount()
	if s.cfg.TwoHop {
		circle += s.deps.Topo.TwoHopCount()
	}
	if circle < s.cfg.L {
		// Refused before any message: no sequence number, no timer.
		s.endRound(&roundState{value: value}, false, "fewer neighbours than dependability level")
		return nil
	}
	s.nextSeq++
	r := &roundState{
		seq:       s.nextSeq,
		value:     append([]byte(nil), value...),
		acks:      make([]voterAck, 0, s.cfg.L),
		proposing: s.cfg.Mode == Deterministic,
	}
	s.rounds[r.seq] = r
	r.timer = sim.NewTimer(s.deps.K, func() { s.onRoundTimeout(r) })
	r.timer.Reset(s.cfg.RoundTimeout)
	s.kickRound(r)
	return nil
}

// kickRound (re)transmits the round's opening message.
func (s *Service) kickRound(r *roundState) {
	switch s.cfg.Mode {
	case Deterministic:
		_ = s.deps.Link.SendRaw(link.BroadcastID, ProposeMsg{
			Center: s.deps.ID, Seq: r.seq, L: s.cfg.L, Mode: Deterministic, Value: r.value,
		})
	case Statistical:
		if !r.proposing {
			_ = s.deps.Link.SendRaw(link.BroadcastID, SolicitMsg{
				Center: s.deps.ID, Seq: r.seq, L: s.cfg.L, Meta: r.value,
			})
		} else {
			s.sendStatPropose(r)
		}
	}
}

func (s *Service) onRoundTimeout(r *roundState) {
	if r.done {
		return
	}
	if r.retries < s.cfg.Retries {
		r.retries++
		r.timer.Reset(s.cfg.RoundTimeout)
		s.kickRound(r)
		return
	}
	s.endRound(r, false, "timeout waiting for inner-circle approval")
}

// endRound ends round r at its center, as agreed or as failed for reason.
// Every end of a round — agreement, timeout, abort, or a refusal for too
// few neighbours before the round began — comes through here, so this is
// the one place that counts a round out, stops its timer, forgets it and
// reports its failure. A refused round never began: it has seq 0 (issued
// sequence numbers start at 1, so no open round is keyed 0) and a nil
// timer, which is why the timer is checked before it is stopped.
func (s *Service) endRound(r *roundState, agreed bool, reason string) {
	r.done = true
	if r.timer != nil {
		r.timer.Stop()
	}
	delete(s.rounds, r.seq)
	if agreed {
		s.Stats.RoundsAgreed++
		return
	}
	s.Stats.RoundsFailed++
	if s.cbs.OnRoundFailed != nil {
		s.cbs.OnRoundFailed(r.value, reason)
	}
}

// HandleEnv processes voting traffic; it reports whether the envelope was
// consumed.
func (s *Service) HandleEnv(e link.Env) bool {
	switch m := e.Msg.(type) {
	case ProposeMsg:
		s.onPropose(e.From, m)
	case AckMsg:
		s.onAck(e.From, m)
	case SolicitMsg:
		s.onSolicit(e.From, m)
	case ValueMsg:
		s.onValue(e.From, m)
	case AgreedMsg:
		s.onAgreed(e.From, m)
	default:
		return false
	}
	return true
}

// ---- voter side ---------------------------------------------------------

// admit is the voter's one admission check for a round's opening message,
// a proposal or a solicitation from center, received directly or, in a
// two-hop circle, relayed by relayer. join reports whether this node takes
// part in the round; relay whether it must relay the opening outward, as a
// first-ring member does with each direct copy.
func (s *Service) admit(from, center, relayer link.NodeID, relayed bool) (join, relay bool) {
	if center == s.deps.ID {
		return false, false
	}
	if relayed {
		// Two-hop participation: the relayer must be our neighbour and
		// must (per our two-hop view) be a neighbour of the center.
		// First-ring nodes act on the direct copy.
		return s.cfg.TwoHop && from == relayer &&
			!s.deps.Topo.IsNeighbor(center) && s.deps.Topo.IsLink(relayer, center), false
	}
	// Only vote in inner circles we belong to: the center must be an
	// authenticated, timely neighbour.
	if from != center || !s.deps.Topo.IsNeighbor(center) {
		return false, false
	}
	return true, s.cfg.TwoHop
}

func (s *Service) onPropose(from link.NodeID, m ProposeMsg) {
	join, relay := s.admit(from, m.Center, m.Relayer, m.Relayed)
	if !join {
		return
	}
	if relay {
		out := m
		out.Relayed, out.Relayer = true, s.deps.ID
		_ = s.deps.Link.SendRaw(link.BroadcastID, out)
	}
	if s.ackedSeq[m.Center] >= m.Seq {
		// Re-proposal of an already-acked round: re-send the ack (the
		// original may have been lost).
		if s.ackedSeq[m.Center] == m.Seq {
			s.sendAck(m)
		}
		return
	}
	if _, ok := s.deps.Keys[m.L]; !ok {
		return
	}
	switch m.Mode {
	// A failed check means this voter declines to approve — it is not by
	// itself provable misbehaviour (the voter may simply lack the local
	// context the check needs, e.g. the fw state of Fig. 6 before the
	// corresponding agreed message arrives), so no suspicion is raised
	// here; suppression of genuinely unsigned/invalid traffic is the
	// interceptor's job.
	case Deterministic:
		if s.cbs.Check != nil && !s.cbs.Check(m.Center, m.Value) {
			if s.byz == nil || !s.byz.AckAll {
				s.Stats.ChecksRejected++
				return
			}
			s.byz.lie() // colluding voter: approve what the check rejected
		}
	case Statistical:
		if !s.verifyStatPropose(m) {
			s.Stats.ChecksRejected++
			return
		}
	default:
		return
	}
	s.ackedSeq[m.Center] = m.Seq
	s.sendAck(m)
}

// verifyStatPropose re-derives the fused value from the signed inputs.
func (s *Service) verifyStatPropose(m ProposeMsg) bool {
	if s.cbs.Fuse == nil || s.deps.Auth == nil {
		return false
	}
	if len(m.Values) < m.L+1 {
		return false // must include center's value plus >= L voters
	}
	vals := make([][]byte, 0, len(m.Values))
	seen := make(map[link.NodeID]bool, len(m.Values))
	for i, sv := range m.Values {
		if seen[sv.Voter] {
			return false
		}
		seen[sv.Voter] = true
		// The first entry is the center's own value; the rest must carry
		// valid individual signatures from distinct voters.
		if i == 0 {
			if sv.Voter != m.Center {
				return false
			}
		} else if s.verifyValue(sv.Voter, s.valueDigest(m.Center, m.Seq, sv.Voter, sv.Value), sv.Sig) != nil {
			return false
		}
		vals = append(vals, sv.Value)
	}
	fused := s.cbs.Fuse(m.Center, vals)
	return bytes.Equal(fused, m.Value)
}

func (s *Service) sendAck(m ProposeMsg) {
	signer, ok := s.deps.Keys[m.L]
	if !ok {
		return
	}
	p, err := signer.PartialSign(s.digest(m.Center, m.Seq, m.L, m.Value))
	if err != nil {
		return
	}
	if s.byz != nil && s.byz.CorruptAcks {
		p.Data = flipOneBit(p.Data, s.byz.RNG)
		s.byz.lie()
	}
	s.Stats.AcksSent++
	dst := m.Center
	if m.Relayed {
		dst = m.Relayer // the relayer forwards it inward
	}
	// Boxed once here, so the closure below carries an interface value,
	// not a copy of the message.
	var ack link.Message = AckMsg{Center: m.Center, Seq: m.Seq, Voter: s.deps.ID, Partial: p}
	s.afterCrypto(s.deps.Crypto.SignDelay, s.deps.Crypto.SignEnergy, func() {
		_ = s.deps.Link.SendRaw(dst, ack)
	})
}

// afterCrypto charges a crypto operation's energy and runs fn after its
// processing delay (immediately under the Instant profile).
func (s *Service) afterCrypto(delay sim.Duration, joules float64, fn func()) {
	if s.deps.Energy != nil && joules > 0 {
		s.deps.Energy.AddEnergy(joules)
	}
	if delay <= 0 {
		fn()
		return
	}
	s.deps.K.ScheduleFire(delay, fn)
}

func (s *Service) onSolicit(from link.NodeID, m SolicitMsg) {
	join, relay := s.admit(from, m.Center, m.Relayer, m.Relayed)
	if !join {
		return
	}
	if relay {
		out := m
		out.Relayed, out.Relayer = true, s.deps.ID
		_ = s.deps.Link.SendRaw(link.BroadcastID, out)
	}
	if s.cbs.LocalValue == nil || s.deps.Auth == nil {
		return
	}
	val, ok := s.cbs.LocalValue(m.Center, m.Meta)
	if !ok {
		return
	}
	if s.byz != nil && s.byz.LieValue != nil {
		val = s.byz.LieValue(m.Center, m.Meta, val)
		s.byz.lie()
	}
	sig := s.deps.Auth.Sign(s.valueDigest(m.Center, m.Seq, s.deps.ID, val))
	s.Stats.ValuesSent++
	dst := m.Center
	if m.Relayed {
		dst = m.Relayer
	}
	_ = s.deps.Link.SendRaw(dst, ValueMsg{
		Center: m.Center, Seq: m.Seq, Voter: s.deps.ID, Value: val, Sig: sig,
	})
}

// ---- center side --------------------------------------------------------

// inward is the one path of a voter's reply, an ack or a value message,
// toward its center. At the center it returns the open round the reply k
// answers, if the round is in the phase that expects k's kind and k's
// voter is in the circle, and nil otherwise. Elsewhere it returns nil and
// whether to forward the reply: in a two-hop circle a first-ring member
// forwards a ring-two voter's reply to the center, once. The caller sends
// it, so a reply that is not forwarded is never boxed.
func (s *Service) inward(from link.NodeID, k relayKey) (r *roundState, forward bool) {
	if k.center != s.deps.ID {
		if s.cfg.TwoHop && from == k.voter && s.deps.Topo.IsNeighbor(k.center) && !s.relayed[k] {
			s.relayed[k] = true
			return nil, true
		}
		return nil, false
	}
	if from != k.voter && !s.cfg.TwoHop {
		return nil, false
	}
	r, ok := s.rounds[k.seq]
	if !ok || r.proposing != (k.kind == kindAck) || !s.inCircle(k.voter) {
		return nil, false
	}
	return r, false
}

func (s *Service) onValue(from link.NodeID, m ValueMsg) {
	r, fwd := s.inward(from, relayKey{center: m.Center, seq: m.Seq, voter: m.Voter, kind: kindValue})
	if fwd {
		_ = s.deps.Link.SendRaw(m.Center, m)
	}
	if r == nil || r.hasValue(m.Voter) {
		return
	}
	// Verify the voter's individual signature before accepting its value.
	if s.verifyValue(m.Voter, s.valueDigest(m.Center, m.Seq, m.Voter, m.Value), m.Sig) != nil {
		if s.deps.Susp != nil {
			s.deps.Susp.SuspectTemporary(m.Voter, "bad signature on value message")
		}
		return
	}
	r.values = append(r.values, SignedValue{Voter: m.Voter, Value: m.Value, Sig: m.Sig})
	if len(r.values) >= s.cfg.L {
		s.buildStatPropose(r)
	}
}

// buildStatPropose fuses the collected values and moves the round into the
// propose phase.
func (s *Service) buildStatPropose(r *roundState) {
	all := make([]SignedValue, 0, len(r.values)+1)
	all = append(all, SignedValue{Voter: s.deps.ID, Value: r.value})
	all = append(all, r.values...)
	vals := make([][]byte, len(all))
	for i, sv := range all {
		vals[i] = sv.Value
	}
	fused := s.cbs.Fuse(s.deps.ID, vals)
	r.value = fused
	r.values = all
	r.proposing = true
	s.sendStatPropose(r)
}

func (s *Service) sendStatPropose(r *roundState) {
	_ = s.deps.Link.SendRaw(link.BroadcastID, ProposeMsg{
		Center: s.deps.ID, Seq: r.seq, L: s.cfg.L, Mode: Statistical,
		Value: r.value, Values: r.values,
	})
}

func (s *Service) onAck(from link.NodeID, m AckMsg) {
	r, fwd := s.inward(from, relayKey{center: m.Center, seq: m.Seq, voter: m.Voter, kind: kindAck})
	if fwd {
		_ = s.deps.Link.SendRaw(m.Center, m)
	}
	if r == nil {
		return
	}
	at, dup := r.ackPos(m.Voter)
	if dup {
		return
	}
	// A corrupt partial is identified on arrival: the lie is rejected at
	// the source and the liar permanently suspected, so the combine only
	// ever sees verified partials.
	if !s.verifyPartial(s.deps.Ring[s.cfg.L], s.digest(s.deps.ID, r.seq, s.cfg.L, r.value), m.Partial) {
		s.Stats.PartialsRejected++
		if s.deps.Susp != nil {
			s.deps.Susp.SuspectPermanent(m.Voter, "corrupt partial signature")
		}
		return
	}
	r.acks = slices.Insert(r.acks, at, voterAck{voter: m.Voter, partial: m.Partial})
	if len(r.acks) >= s.cfg.L {
		s.tryComplete(r)
	}
}

// tryComplete combines the collected partials, each verified on arrival,
// with the center's own share.
func (s *Service) tryComplete(r *roundState) {
	signer, ok := s.deps.Keys[s.cfg.L]
	if !ok {
		return
	}
	gk := s.deps.Ring[s.cfg.L]
	dig := s.digest(s.deps.ID, r.seq, s.cfg.L, r.value)
	own, err := signer.PartialSign(dig)
	if err != nil {
		return
	}
	partials := make([]thresh.Partial, 0, len(r.acks)+1)
	partials = append(partials, own)
	for _, a := range r.acks {
		partials = append(partials, a.partial)
	}
	sig, err := gk.Combine(dig, partials)
	if err != nil {
		// Not combinable yet; wait for more acks or the timeout.
		return
	}
	s.endRound(r, true, "")
	agreed := AgreedMsg{Center: s.deps.ID, Seq: r.seq, L: s.cfg.L, Value: r.value, Sig: sig}
	// Fig. 6: the center sends the agreed message to all its inner-circle
	// nodes, then delivers it locally. The center paid one partial
	// signature plus the combination.
	cost := s.deps.Crypto.SignDelay + s.deps.Crypto.CombineDelay
	joules := s.deps.Crypto.SignEnergy + s.deps.Crypto.CombineEnergy
	s.afterCrypto(cost, joules, func() {
		_ = s.deps.Link.SendRaw(link.BroadcastID, agreed)
		s.deliverAgreed(agreed)
	})
}

// ---- agreed handling ----------------------------------------------------

func (s *Service) onAgreed(from link.NodeID, m AgreedMsg) {
	if s.deps.Energy != nil && s.deps.Crypto.VerifyEnergy > 0 {
		s.deps.Energy.AddEnergy(s.deps.Crypto.VerifyEnergy)
	}
	if err := s.VerifyAgreed(m); err != nil {
		s.Stats.AgreedInvalid++
		if s.deps.Susp != nil {
			s.deps.Susp.SuspectPermanent(from, "relayed invalid agreed message")
		}
		return
	}
	// Two-hop circles: first-ring members relay the center's agreed
	// message outward once (before the dedup marks it delivered).
	if s.cfg.TwoHop && from == m.Center && s.deps.Topo.IsNeighbor(m.Center) {
		if !s.delivered.Has(m.Center, m.Seq) {
			_ = s.deps.Link.SendRaw(link.BroadcastID, m)
		}
	}
	s.deliverAgreed(m)
}

// inCircle reports whether a voter belongs to this center's inner circle
// under the current configuration.
func (s *Service) inCircle(voter link.NodeID) bool {
	if s.deps.Topo.IsNeighbor(voter) {
		return true
	}
	return s.cfg.TwoHop && s.deps.Topo.IsTwoHop(voter)
}

func (s *Service) deliverAgreed(m AgreedMsg) {
	if !s.delivered.Mark(m.Center, m.Seq) {
		return
	}
	s.Stats.AgreedDelivered++
	if s.cbs.OnAgreed != nil {
		s.cbs.OnAgreed(m)
	}
}

// VerifyAgreed checks an agreed message's threshold signature against the
// level key it names — the check any remote recipient performs (§3).
func (s *Service) VerifyAgreed(m AgreedMsg) error {
	gk, ok := s.deps.Ring[m.L]
	if !ok {
		return fmt.Errorf("%w: L=%d", ErrNoLevelKey, m.L)
	}
	dig := s.digest(m.Center, m.Seq, m.L, m.Value)
	return s.memoized(sigcache.KindThresh, gk, gk.Epoch(), func() error {
		return gk.Verify(dig, m.Sig)
	}, dig, m.Sig.Data)
}

// verifyValue checks voter's individual signature on a value digest
// through the verification memo. The verdict is keyed by the voter's ID:
// within a replica an ID names one key, fixed for the whole run.
func (s *Service) verifyValue(voter link.NodeID, dig, sig []byte) error {
	return s.memoized(sigcache.KindNSL, voter, 0, func() error {
		return s.deps.Auth.Verify(voter, dig, sig)
	}, dig, sig)
}

// errBadPartialMemo is the memoized verdict for a rejected partial.
var errBadPartialMemo = errors.New("vote: partial rejected")

// verifyPartial checks one partial signature under gk through the
// verification memo. The partial's share index and proof participate in
// the key: two voters' partials over the same digest are distinct
// verifications, and a verdict on one proof is never served for another.
func (s *Service) verifyPartial(gk thresh.GroupKey, dig []byte, p thresh.Partial) bool {
	var idx [4]byte
	binary.BigEndian.PutUint32(idx[:], uint32(p.Index))
	return s.memoized(sigcache.KindPartial, gk, gk.Epoch(), func() error {
		if !gk.VerifyPartial(dig, p) {
			return errBadPartialMemo
		}
		return nil
	}, dig, p.Data, idx[:], p.Proof) == nil
}

// memoized runs verify through the verification memo: a verdict memoized
// under (kind, scope, epoch, parts) is served without verifying, and a
// fresh verdict is memoized. The epoch is the verifying key's, so a
// refresh or reshare retires every verdict cached before it. Without a
// memo it only runs verify and hashes nothing.
func (s *Service) memoized(kind sigcache.Kind, scope any, epoch uint64, verify func() error, parts ...[]byte) error {
	memo := s.deps.Memo
	if memo == nil {
		return verify()
	}
	k := sigcache.Key{Kind: kind, Scope: scope, Epoch: epoch, Sum: sigcache.HashParts(parts...)}
	if e, ok := memo.Get(k); ok {
		s.Stats.MemoHits++
		return e.Err
	}
	s.Stats.MemoMisses++
	err := verify()
	memo.Put(k, sigcache.Entry{Err: err})
	return err
}

// SetKeys replaces this node's signer set, the per-node half of a
// membership epoch transition: the public ring object is mutated in place
// by the dealer's refresh/reshare, while each member installs its new
// signers here. A node expelled from (or not yet admitted to) the circle
// installs an empty map and silently declines to ack until re-admitted.
func (s *Service) SetKeys(nk NodeKeys) {
	if nk == nil {
		nk = NodeKeys{}
	}
	s.deps.Keys = nk
}

// AbortInFlight fails every round this node is currently centering, in
// ascending sequence order (map order would make failure callbacks — and
// therefore traces — vary between identical runs). The membership layer
// calls it to drain in-flight votes before swapping signer sets: a round
// straddling a reshare would otherwise try to combine partials from two
// incompatible share polynomials. Returns the number of rounds aborted.
func (s *Service) AbortInFlight(reason string) int {
	if len(s.rounds) == 0 {
		return 0
	}
	seqs := make([]uint64, 0, len(s.rounds))
	for seq := range s.rounds {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		s.endRound(s.rounds[seq], false, reason)
	}
	return len(seqs)
}

// VerifierFor adapts the service into an interceptor signature check: it
// recognizes AgreedMsg envelopes and validates their signatures.
func (s *Service) VerifierFor() icnet.Verifier {
	return func(e link.Env) (bool, bool) {
		m, ok := e.Msg.(AgreedMsg)
		if !ok {
			return false, false
		}
		return true, s.VerifyAgreed(m) == nil
	}
}

// Package sts implements the Secure Topology Service of §4.1: periodic
// authenticated beacons discover bidirectional links up to two hops away
// and give each node a local topology view, so it can determine which
// inner-circles it should participate in.
//
// Authentication has two parts, per the paper: a Needham–Schroeder–Lowe
// handshake (package nsl) authenticates a newly discovered neighbour link,
// and every beacon is signed by its sender, so neighbour lists cannot be
// forged on behalf of other nodes. The signer is the node's one Auth, the
// same value its voting service signs statistical values with. Links
// without a beacon in the last ∆STS are excluded (the Completeness
// property); fresh one- and two-hop links appear within a beacon period
// (the Accuracy properties).
//
// A beacon is signed once and checked by every neighbour that hears it, so
// beacon verification is the repository's most-called verifier. The
// service answers repeat checks of one broadcast from a Memo that
// node.Build creates per shard, whichever authenticator runs: the memo
// compares the sender, digest and signature bytes last found valid for the
// sender, and only a miss reaches the authenticator. A SimAuth check reads
// the sender's key from a per-replica table and computes its MAC on the
// stack (package keyedmac). The receive path keeps its digest and
// neighbour-list storage between beacons, and the send path resends an
// unchanged neighbour list as the same slice. See DESIGN.md §10.
package sts

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"innercircle/internal/crypto/nsl"
	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// Config parameterizes the service.
type Config struct {
	// Period is the beacon period τ; the paper requires τ < ∆STS/2.
	Period sim.Duration
	// Delta is ∆STS: links with no beacon for Delta are excluded.
	Delta sim.Duration
	// Authenticate enables beacon signatures; without it beacons are plain
	// hellos. The "No IC" baselines run no STS at all (a zero Config).
	Authenticate bool
	// Handshake additionally runs the NSL link-authentication handshake
	// before a neighbour is trusted. Large sweeps may disable it (beacons
	// remain signed); see DESIGN.md.
	Handshake bool
	// BeaconBaseBytes is the fixed part of the beacon size.
	BeaconBaseBytes int
}

// DefaultConfig returns the ad hoc scenario parameters (∆STS = 2 s).
func DefaultConfig() Config {
	return Config{Period: 0.9, Delta: 2, Authenticate: true, Handshake: true, BeaconBaseBytes: 28}
}

// Deps are the node-local services the STS builds on.
type Deps struct {
	ID   link.NodeID
	K    *sim.Kernel
	Link *link.Service
	RNG  *sim.RNG
	// Auth signs/verifies beacons; required when Config.Authenticate is
	// set. It is the node's one authenticator, shared with its voting
	// service.
	Auth Auth
	// Memo is the beacon memo of the node's shard, checked before Auth;
	// nil verifies every beacon afresh, which tests use as the reference.
	Memo *Memo
	// Party runs the NSL handshake; required when Config.Handshake is set.
	Party *nsl.Party
}

// BeaconMsg is the periodic STS broadcast: the sender's identity and its
// current (authenticated, timely) neighbour list, signed by the sender.
type BeaconMsg struct {
	From      link.NodeID
	Seq       uint64
	Neighbors []link.NodeID
	Sig       []byte
	Base      int
}

// Size implements link.Message.
func (b BeaconMsg) Size() int { return b.Base + 8*len(b.Neighbors) + len(b.Sig) }

// HandshakeMsg carries one NSL protocol message between two nodes.
type HandshakeMsg struct {
	Phase  int // 1, 2 or 3
	Cipher []byte
}

// Size implements link.Message.
func (h HandshakeMsg) Size() int { return 4 + len(h.Cipher) }

// neighEntry is what this node knows about one neighbour.
type neighEntry struct {
	lastBeacon    sim.Time
	lastSeq       uint64
	authenticated bool
	theirNeigh    []link.NodeID
	theirNeighAt  sim.Time
	handshakeSent bool
}

// Stats counts STS activity.
type Stats struct {
	BeaconsSent     uint64
	BeaconsReceived uint64
	BeaconsRejected uint64 // bad signature or stale sequence
	Handshakes      uint64 // completed link authentications
	// VerifyMemoHits counts beacon signature checks answered from the
	// shard's memo (Deps.Memo), VerifyMemoMisses the checks it passed on
	// to the authenticator. Both stay zero without a memo.
	VerifyMemoHits   uint64
	VerifyMemoMisses uint64
}

// Service is one node's secure topology service. Not safe for concurrent
// use.
type Service struct {
	cfg     Config
	deps    Deps
	ticker  *sim.Ticker
	running bool
	seq     uint64
	neigh   map[link.NodeID]*neighEntry
	// digest is the storage beaconDigest appends into; the bytes are only
	// read by Sign/Verify before the next beacon overwrites them.
	digest []byte
	// view is the storage a beacon's one-hop view is built in; sent is the
	// list the last beacon carried. A sent list is never written again:
	// receivers, taps, the tracer and delayed fault copies may all still
	// read it, so an unchanged view goes out as the same slice and a
	// changed one as a fresh copy.
	view, sent []link.NodeID

	onChange func()

	// Stats exposes counters to the experiment harness.
	Stats Stats
}

// New creates a stopped service; call Start to begin beaconing.
func New(cfg Config, deps Deps) (*Service, error) {
	if cfg.Period <= 0 || cfg.Delta <= 0 {
		return nil, fmt.Errorf("sts: period and delta must be positive")
	}
	if cfg.Period >= cfg.Delta/2 {
		return nil, fmt.Errorf("sts: period %v must be < delta/2 = %v", cfg.Period, cfg.Delta/2)
	}
	if cfg.Authenticate && deps.Auth == nil {
		return nil, fmt.Errorf("sts: authentication requires Auth")
	}
	if cfg.Handshake && (!cfg.Authenticate || deps.Party == nil) {
		return nil, fmt.Errorf("sts: handshake requires Authenticate and Party")
	}
	return &Service{cfg: cfg, deps: deps, neigh: make(map[link.NodeID]*neighEntry)}, nil
}

// OnChange registers a callback invoked whenever the neighbour set may have
// changed.
func (s *Service) OnChange(fn func()) { s.onChange = fn }

// Start begins periodic beaconing; the first beacon goes out immediately
// (with a small jitter) so cold-started networks converge within one
// period.
func (s *Service) Start() {
	s.running = true
	s.sendBeacon()
	s.ticker = sim.NewTicker(s.deps.K, s.cfg.Period, func() sim.Duration {
		return s.deps.RNG.Jitter(s.cfg.Period / 10)
	}, s.sendBeacon)
}

// Stop halts beaconing.
func (s *Service) Stop() {
	s.running = false
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

// Announce sends one immediate out-of-schedule beacon. Membership epoch
// transitions call it so the surviving circle re-announces its liveness
// (and freshly joined nodes are heard) without waiting out a beacon
// period. A no-op on a stopped service: a departed node must not beacon.
func (s *Service) Announce() {
	if s.running {
		s.sendBeacon()
	}
}

func (s *Service) sendBeacon() {
	s.seq++
	b := BeaconMsg{
		From:      s.deps.ID,
		Seq:       s.seq,
		Neighbors: s.beaconView(),
		Base:      s.cfg.BeaconBaseBytes,
	}
	if s.cfg.Authenticate {
		s.digest = beaconDigest(s.digest[:0], b)
		b.Sig = s.deps.Auth.Sign(s.digest)
	}
	s.Stats.BeaconsSent++
	_ = s.deps.Link.SendRaw(link.BroadcastID, b)
}

// beaconView returns the one-hop view for the next beacon: the list the
// last beacon sent when the view has not changed since, a fresh copy when
// it has.
func (s *Service) beaconView() []link.NodeID {
	s.view = s.appendNeighbors(s.view[:0])
	if !slices.Equal(s.view, s.sent) {
		s.sent = slices.Clone(s.view)
	}
	return s.sent
}

// beaconDigest appends the canonical bytes covered by the beacon signature
// to buf.
func beaconDigest(buf []byte, b BeaconMsg) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.From))
	buf = binary.BigEndian.AppendUint64(buf, b.Seq)
	for _, n := range b.Neighbors {
		buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	}
	return buf
}

// HandleEnv processes STS traffic; it returns true when the envelope was an
// STS message (consumed), false otherwise.
func (s *Service) HandleEnv(e link.Env) bool {
	switch m := e.Msg.(type) {
	case BeaconMsg:
		s.onBeacon(e.From, m)
		return true
	case HandshakeMsg:
		s.onHandshake(e.From, m)
		return true
	default:
		return false
	}
}

func (s *Service) onBeacon(from link.NodeID, b BeaconMsg) {
	if from != b.From {
		s.Stats.BeaconsRejected++
		return // spoofed source
	}
	if s.cfg.Authenticate {
		s.digest = beaconDigest(s.digest[:0], b)
		if !s.verify(b.From, s.digest, b.Sig) {
			s.Stats.BeaconsRejected++
			return
		}
	}
	now := s.deps.K.Now()
	ent, known := s.neigh[b.From]
	if !known {
		ent = &neighEntry{}
		s.neigh[b.From] = ent
	}
	if known && b.Seq <= ent.lastSeq {
		s.Stats.BeaconsRejected++
		return // replayed or reordered beacon
	}
	s.Stats.BeaconsReceived++
	ent.lastBeacon = now
	ent.lastSeq = b.Seq
	// The message's list is shared with the other receivers; copy it into
	// this entry's own storage (the view accessors hand out copies).
	ent.theirNeigh = append(ent.theirNeigh[:0], b.Neighbors...)
	ent.theirNeighAt = now
	if !s.cfg.Handshake {
		ent.authenticated = true
	} else if !ent.authenticated && !ent.handshakeSent && s.deps.ID < b.From {
		// Deterministic initiator selection: lower ID initiates.
		m1, err := s.deps.Party.Initiate(int64(b.From))
		if err == nil {
			ent.handshakeSent = true
			_ = s.deps.Link.SendRaw(b.From, HandshakeMsg{Phase: 1, Cipher: m1.Cipher})
		}
	}
	s.changed()
}

// verify reports whether sig is id's valid signature over digest: from the
// memo when it holds exactly these bytes as id's last valid pair, else
// from the authenticator, storing only a valid verdict.
func (s *Service) verify(id link.NodeID, digest, sig []byte) bool {
	if s.deps.Memo == nil {
		return s.deps.Auth.Verify(id, digest, sig) == nil
	}
	e := s.deps.Memo.entry(id)
	if e != nil && e.valid && bytes.Equal(e.sig, sig) && bytes.Equal(e.digest, digest) {
		s.Stats.VerifyMemoHits++
		return true
	}
	s.Stats.VerifyMemoMisses++
	if s.deps.Auth.Verify(id, digest, sig) != nil {
		return false
	}
	if e != nil { // the memo keeps copies: digest is this service's scratch buffer
		e.valid, e.digest, e.sig = true, append(e.digest[:0], digest...), append(e.sig[:0], sig...)
	}
	return true
}

func (s *Service) onHandshake(from link.NodeID, h HandshakeMsg) {
	if !s.cfg.Handshake {
		return
	}
	switch h.Phase {
	case 1:
		m2, err := s.deps.Party.OnMsg1(nsl.Msg1{To: int64(s.deps.ID), Cipher: h.Cipher})
		if err != nil {
			return
		}
		_ = s.deps.Link.SendRaw(from, HandshakeMsg{Phase: 2, Cipher: m2.Cipher})
	case 2:
		m3, _, err := s.deps.Party.OnMsg2(int64(from), nsl.Msg2{To: int64(s.deps.ID), Cipher: h.Cipher})
		if err != nil {
			return
		}
		_ = s.deps.Link.SendRaw(from, HandshakeMsg{Phase: 3, Cipher: m3.Cipher})
		s.markAuthenticated(from)
	case 3:
		if _, err := s.deps.Party.OnMsg3(int64(from), nsl.Msg3{To: int64(s.deps.ID), Cipher: h.Cipher}); err != nil {
			return
		}
		s.markAuthenticated(from)
	}
}

func (s *Service) markAuthenticated(id link.NodeID) {
	ent, ok := s.neigh[id]
	if !ok {
		ent = &neighEntry{}
		s.neigh[id] = ent
	}
	if !ent.authenticated {
		ent.authenticated = true
		s.Stats.Handshakes++
		s.changed()
	}
}

func (s *Service) changed() {
	if s.onChange != nil {
		s.onChange()
	}
}

// timely reports whether the entry's last beacon is within ∆STS.
func (s *Service) timely(ent *neighEntry) bool {
	return ent.lastBeacon > 0 && s.deps.K.Now()-ent.lastBeacon <= s.cfg.Delta
}

// IsNeighbor reports whether q is currently an authenticated, timely
// one-hop neighbour.
func (s *Service) IsNeighbor(q link.NodeID) bool {
	ent, ok := s.neigh[q]
	return ok && ent.authenticated && s.timely(ent)
}

// Neighbors returns the current one-hop view, sorted by ID.
func (s *Service) Neighbors() []link.NodeID {
	return s.appendNeighbors(make([]link.NodeID, 0, len(s.neigh)))
}

// appendNeighbors appends the current one-hop view to out, which must be
// empty, and sorts it.
func (s *Service) appendNeighbors(out []link.NodeID) []link.NodeID {
	for id, ent := range s.neigh {
		if ent.authenticated && s.timely(ent) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// NeighborCount returns the size of the current one-hop view.
func (s *Service) NeighborCount() int {
	n := 0
	for _, ent := range s.neigh {
		if ent.authenticated && s.timely(ent) {
			n++
		}
	}
	return n
}

// reported returns the service's own copy of the neighbour list p last
// reported, nil if p is not a timely neighbour. Callers must not modify or
// retain it.
func (s *Service) reported(p link.NodeID) []link.NodeID {
	ent, ok := s.neigh[p]
	if !ok || !ent.authenticated || !s.timely(ent) {
		return nil
	}
	return ent.theirNeigh
}

// NeighborsOf returns the most recently reported neighbour list of
// one-hop neighbour p (the two-hop view), or nil if p is not a timely
// neighbour.
func (s *Service) NeighborsOf(p link.NodeID) []link.NodeID {
	return append([]link.NodeID(nil), s.reported(p)...)
}

// IsLink reports whether the two-hop view contains the directed link
// p -> q: p is a timely neighbour and p's last beacon listed q.
func (s *Service) IsLink(p, q link.NodeID) bool {
	return slices.Contains(s.reported(p), q)
}

// IsTwoHop reports whether q is reachable through some timely neighbour
// but is not itself a neighbour (nor this node).
func (s *Service) IsTwoHop(q link.NodeID) bool {
	if q == s.deps.ID || s.IsNeighbor(q) {
		return false
	}
	for p := range s.neigh {
		if s.IsLink(p, q) {
			return true
		}
	}
	return false
}

// TwoHopCount returns the number of distinct two-hop nodes in the current
// view.
func (s *Service) TwoHopCount() int {
	seen := make(map[link.NodeID]bool)
	for p := range s.neigh {
		for _, q := range s.reported(p) {
			if q == s.deps.ID || s.IsNeighbor(q) {
				continue
			}
			seen[q] = true
		}
	}
	return len(seen)
}

// InnerCircleOf returns the nodes this node believes form center's
// inner circle (center's neighbours per the two-hop view), excluding this
// node itself. When center is this node, its own neighbour list is
// returned.
func (s *Service) InnerCircleOf(center link.NodeID) []link.NodeID {
	if center == s.deps.ID {
		return s.Neighbors()
	}
	var out []link.NodeID
	for _, n := range s.reported(center) {
		if n != s.deps.ID {
			out = append(out, n)
		}
	}
	return out
}

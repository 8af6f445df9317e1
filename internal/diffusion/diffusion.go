// Package diffusion implements the directed-diffusion subset the paper's
// sensor scenario (§5.2) runs on: the sink (base station) periodically
// floods an interest, nodes establish gradients toward the sink (the
// lowest-hop-count neighbour the interest arrived from), and data messages
// are unicast hop by hop down the gradient. The reinforcement machinery of
// full directed diffusion is omitted — Fig. 8's metrics depend on
// multi-hop delivery cost and latency, which the gradient subset captures
// (see DESIGN.md's substitution table).
package diffusion

import (
	"fmt"

	"innercircle/internal/link"
	"innercircle/internal/sim"
)

// InterestMsg is the sink's periodic flooded interest. Its hop count is
// the envelope's (link.Env.Hops): the sink sends it at 0 and every node
// re-floods the interest it received unchanged.
type InterestMsg struct {
	Sink link.NodeID
	Seq  uint64
}

// Size implements link.Message.
func (InterestMsg) Size() int { return 16 }

// DataMsg carries an application message toward the sink. Via names the
// intended next hop when the message travels as an unreliable broadcast
// (see Config.Unreliable); other receivers ignore it. The radio
// transmissions it took are one more than its envelope's hop count
// (link.Env.Hops), which counts forwards only.
type DataMsg struct {
	Src     link.NodeID
	Sink    link.NodeID
	Via     link.NodeID
	Seq     uint64
	Payload link.Message
}

// Size implements link.Message.
func (d DataMsg) Size() int { return 16 + d.Payload.Size() }

// Config parameterizes the service.
type Config struct {
	// InterestPeriod is how often a sink refloods its interest.
	InterestPeriod sim.Duration
	// GradientTimeout invalidates gradients that have not been refreshed.
	GradientTimeout sim.Duration
	// Unreliable sends data hops as MAC broadcasts (no acknowledgement or
	// retransmission), matching classic directed diffusion over a
	// broadcast MAC. Collisions then silently lose data — the behaviour
	// behind the paper's Fig. 8(e) latency results.
	Unreliable bool
	// FloodData disseminates data as exploratory floods (every node
	// rebroadcasts each distinct (src, seq) once), the first phase of
	// classic directed diffusion. Message volume then scales with the
	// number of reporting sources — the congestion the inner-circle
	// approach suppresses.
	FloodData bool
}

// DefaultConfig matches the sensor experiment scale (200 s runs).
func DefaultConfig() Config {
	return Config{InterestPeriod: 20, GradientTimeout: 50}
}

// Deps wires the service into a node.
type Deps struct {
	ID   link.NodeID
	K    *sim.Kernel
	Link *link.Service
	RNG  *sim.RNG
}

// Stats counts diffusion activity.
type Stats struct {
	InterestsSent      uint64
	InterestsForwarded uint64
	DataSent           uint64
	DataForwarded      uint64
	DataDelivered      uint64
	DataDropped        uint64
}

// Service is one node's diffusion entity.
type Service struct {
	cfg  Config
	deps Deps

	sink        bool
	interestSeq uint64
	ticker      *sim.Ticker

	// gradient state
	parent      link.NodeID
	hops        int
	gradientAt  sim.Time
	gradientSeq uint64
	gradientOK  bool
	sinkID      link.NodeID

	dataSeq   uint64
	seen      link.SeenSet // flood mode: every (src, seq) heard or sent
	onDeliver func(src link.NodeID, hops int, payload link.Message)

	// Stats exposes counters to the experiment harness.
	Stats Stats
}

// New returns a stopped service.
func New(cfg Config, deps Deps) (*Service, error) {
	if cfg.InterestPeriod <= 0 || cfg.GradientTimeout <= 0 {
		return nil, fmt.Errorf("diffusion: periods must be positive")
	}
	return &Service{cfg: cfg, deps: deps}, nil
}

// SetSink marks this node as a sink (base station).
func (s *Service) SetSink(v bool) { s.sink = v }

// Sink reports whether this node is a sink.
func (s *Service) Sink() bool { return s.sink }

// OnDeliver registers the sink-side delivery upcall.
func (s *Service) OnDeliver(fn func(src link.NodeID, hops int, payload link.Message)) {
	s.onDeliver = fn
}

// Start begins interest flooding (sinks only; a non-sink Start is a no-op
// until SetSink).
func (s *Service) Start() {
	s.sendInterest()
	s.ticker = sim.NewTicker(s.deps.K, s.cfg.InterestPeriod, func() sim.Duration {
		return s.deps.RNG.Jitter(s.cfg.InterestPeriod / 20)
	}, s.sendInterest)
}

// Stop halts interest flooding.
func (s *Service) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

func (s *Service) sendInterest() {
	if !s.sink {
		return
	}
	s.interestSeq++
	s.Stats.InterestsSent++
	_ = s.deps.Link.SendRaw(link.BroadcastID, InterestMsg{Sink: s.deps.ID, Seq: s.interestSeq})
}

// HopsToSink returns the current gradient depth, if one exists.
func (s *Service) HopsToSink() (int, bool) {
	if s.sink {
		return 0, true
	}
	if !s.gradientOK || s.deps.K.Now()-s.gradientAt > s.cfg.GradientTimeout {
		return 0, false
	}
	return s.hops, true
}

// Send routes payload toward the sink. It fails (counted, not returned)
// when no gradient is established.
func (s *Service) Send(payload link.Message) error {
	if s.sink {
		// Local delivery.
		s.Stats.DataDelivered++
		if s.onDeliver != nil {
			s.onDeliver(s.deps.ID, 0, payload)
		}
		return nil
	}
	if !s.cfg.FloodData {
		if _, ok := s.HopsToSink(); !ok {
			s.Stats.DataDropped++
			return fmt.Errorf("diffusion: no gradient toward a sink")
		}
	}
	s.dataSeq++
	s.Stats.DataSent++
	m := DataMsg{Src: s.deps.ID, Sink: s.sinkID, Via: s.parent, Seq: s.dataSeq, Payload: payload}
	if s.cfg.FloodData {
		// Never re-forward copies of our own flood echoed back by neighbours.
		s.seen.Mark(s.deps.ID, s.dataSeq)
	}
	return s.deps.Link.SendRaw(s.linkDst(m), m)
}

// linkDst is the link destination of data message m: its Via next hop
// (unicast with MAC ARQ), or a broadcast when data floods or travels
// unreliably.
func (s *Service) linkDst(m DataMsg) link.NodeID {
	if s.cfg.FloodData || s.cfg.Unreliable {
		return link.BroadcastID
	}
	return m.Via
}

// HandleEnv processes diffusion traffic; it reports whether the envelope
// was consumed.
func (s *Service) HandleEnv(e link.Env) bool {
	switch m := e.Msg.(type) {
	case InterestMsg:
		s.onInterest(e, m)
		return true
	case DataMsg:
		s.onData(e, m)
		return true
	default:
		return false
	}
}

// onInterest handles interest m, the message of envelope e: e.Hops
// forwards after the sink's send, so this node is e.Hops+1 hops away.
func (s *Service) onInterest(e link.Env, m InterestMsg) {
	if s.sink {
		return
	}
	now := s.deps.K.Now()
	fresh := m.Seq > s.gradientSeq
	better := m.Seq == s.gradientSeq && e.Hops+1 < s.hops
	if !fresh && !better {
		return
	}
	s.parent = e.From
	s.hops = e.Hops + 1
	s.gradientAt = now
	s.gradientSeq = m.Seq
	s.gradientOK = true
	s.sinkID = m.Sink
	if fresh {
		// Re-flood once per sequence, as received.
		s.Stats.InterestsForwarded++
		_ = s.deps.Link.Forward(link.BroadcastID, e)
	}
}

// onData handles data message m, the message of envelope e. The sink
// passes up e.Hops+1: the originating send plus every forward.
func (s *Service) onData(e link.Env, m DataMsg) {
	if s.cfg.FloodData {
		s.onFloodData(e, m)
		return
	}
	if m.Via != s.deps.ID {
		return // overheard broadcast intended for another forwarder
	}
	if s.sink && m.Sink == s.deps.ID {
		s.Stats.DataDelivered++
		if s.onDeliver != nil {
			s.onDeliver(m.Src, e.Hops+1, m.Payload)
		}
		return
	}
	if _, ok := s.HopsToSink(); !ok {
		s.Stats.DataDropped++
		return
	}
	// The next hop is part of the message, so a gradient forward sends a
	// new one.
	m.Via = s.parent
	e.Msg = m
	s.Stats.DataForwarded++
	_ = s.deps.Link.Forward(s.linkDst(m), e)
}

// onFloodData handles exploratory-flood dissemination: deliver at the
// sink, rebroadcast exactly once, as received, elsewhere.
func (s *Service) onFloodData(e link.Env, m DataMsg) {
	if !s.seen.Mark(m.Src, m.Seq) {
		return
	}
	if s.sink {
		s.Stats.DataDelivered++
		if s.onDeliver != nil {
			s.onDeliver(m.Src, e.Hops+1, m.Payload)
		}
		return
	}
	s.Stats.DataForwarded++
	_ = s.deps.Link.Forward(link.BroadcastID, e)
}

package diffusion

import (
	"cmp"
	"slices"
	"testing"

	"innercircle/internal/geo"
	"innercircle/internal/link"
	"innercircle/internal/mac"
	"innercircle/internal/mobility"
	"innercircle/internal/radio"
	"innercircle/internal/sim"
)

// TestFloodRepeatDoesNotAllocate: a node's dedup state stays nil until its
// first flood, and re-receiving a (src, seq) it has seen — what every node
// does for every neighbour's rebroadcast — allocates nothing.
func TestFloodRepeatDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FloodData = true
	s, err := New(cfg, Deps{ID: 0, K: sim.NewKernel()})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSink(true)
	if s.seen != nil {
		t.Fatal("dedup state allocated before the first flood")
	}
	env := link.Env{From: 3, To: link.BroadcastID, Msg: DataMsg{Src: 70, Seq: 130, Payload: payload{size: 8}, Hops: 2}}
	s.HandleEnv(env)
	if allocs := testing.AllocsPerRun(100, func() { s.HandleEnv(env) }); allocs != 0 {
		t.Errorf("%v allocations per repeated reception, want 0", allocs)
	}
	if s.Stats.DataDelivered != 1 {
		t.Fatalf("delivered %d copies, want the first only", s.Stats.DataDelivered)
	}
}

// A dedup script is a sequence of stepBytes-byte steps: an op byte (odd: the
// node sends a flood of its own; even: it receives the flood (src, seq)),
// then a 24-bit source and a 24-bit seq, big-endian, both reduced below
// scriptIDs. That is experiment's maxNodes, and past its maxPeriods (1e6),
// which bounds how many messages a source sends in a run.
const (
	stepBytes = 7
	scriptIDs = 1 << 20
	// scriptBits bounds the bitset bits a script commits (the sum over
	// sources of the largest seq received); steps past it are skipped, so a
	// fuzzer's random seqs cannot make every input megabytes.
	scriptBits = 1 << 23
)

func encodeStep(own bool, src link.NodeID, seq uint64) []byte {
	op := byte(0)
	if own {
		op = 1
	}
	return []byte{op, byte(src >> 16), byte(src >> 8), byte(src), byte(seq >> 16), byte(seq >> 8), byte(seq)}
}

// runDedupScript replays script on one flood-mode node and checks each
// reception's verdict — forwarded or dropped as a repeat — against a map of
// every (source, seq) the node has seen or sent.
func runDedupScript(t *testing.T, script []byte) {
	k := sim.NewKernel()
	ch := radio.NewChannel(k, radio.Params{Range: 40, Bitrate: 2e6})
	l := link.NewService(mac.New(k, ch, mobility.Static(geo.Point{}), nil, sim.NewRNG(1), mac.Default80211()))
	cfg := DefaultConfig()
	cfg.FloodData = true
	s, err := New(cfg, Deps{ID: l.ID(), K: k, Link: l, RNG: sim.NewRNG(2)})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[[2]uint64]bool{}
	top := map[link.NodeID]uint64{}
	bits := uint64(0)
	for i := 0; i+stepBytes <= len(script); i += stepBytes {
		b := script[i : i+stepBytes]
		if b[0]&1 == 1 {
			// The kernel never runs, so the MAC queue fills and later sends
			// fail; the seq is marked either way.
			_ = s.Send(payload{size: 8})
			ref[[2]uint64{uint64(s.deps.ID), s.dataSeq}] = true
			continue
		}
		src := link.NodeID(uint32(b[1])<<16|uint32(b[2])<<8|uint32(b[3])) % scriptIDs
		seq := (uint64(b[4])<<16 | uint64(b[5])<<8 | uint64(b[6])) % scriptIDs
		if seq > top[src] {
			if bits+seq-top[src] > scriptBits {
				continue
			}
			bits += seq - top[src]
			top[src] = seq
		}
		key := [2]uint64{uint64(src), seq}
		want := !ref[key]
		ref[key] = true
		before := s.Stats.DataForwarded
		s.HandleEnv(link.Env{From: 1, To: link.BroadcastID, Msg: DataMsg{Src: src, Seq: seq, Payload: payload{size: 8}, Hops: 1}})
		if got := s.Stats.DataForwarded != before; got != want {
			t.Fatalf("step %d: (src %d, seq %d) forwarded = %v, want %v", i/stepBytes, src, seq, got, want)
		}
	}
	if !slices.IsSortedFunc(s.seen, func(a, b seenSource) int { return cmp.Compare(a.src, b.src) }) {
		t.Fatal("dedup state not sorted by source")
	}
}

// floodSeed records what one node of a small flood field sees — every data
// reception in arrival order, and its own sends — as a dedup script. The
// field has field_scale's shape at toy size: a grid where a node has about a
// dozen neighbours, and a dozen sources, the recorder among them, reporting
// a few times each. The recorder is renumbered 0, the replay node's ID.
func floodSeed(f *testing.F) []byte {
	const side, spacing = 7, 18.0
	pts := make([]geo.Point, 0, side*side)
	for y := range side {
		for x := range side {
			pts = append(pts, geo.Point{X: float64(x) * spacing, Y: float64(y) * spacing})
		}
	}
	net := buildFlood(f, pts)
	const rec = side * side / 2
	renumber := func(n link.NodeID) link.NodeID {
		switch n {
		case rec:
			return 0
		case 0:
			return rec
		}
		return n
	}
	var script []byte
	net.links[rec].OnRecv(func(e link.Env) {
		if m, ok := e.Msg.(DataMsg); ok {
			script = append(script, encodeStep(false, renumber(m.Src), m.Seq)...)
		}
		net.svcs[rec].HandleEnv(e)
	})
	// Sources rec, rec+4, ...: never node 0, the sink, which floods nothing.
	for i := range 12 {
		src := (rec + 4*i) % len(pts)
		for j := range 5 {
			net.k.ScheduleFire(sim.Time(j+1)*0.4+sim.Time(i)*0.013, func() {
				if src == rec {
					script = append(script, encodeStep(true, 0, 0)...)
				}
				_ = net.svcs[src].Send(payload{size: 32})
			})
		}
	}
	if err := net.k.Run(4); err != nil {
		f.Fatal(err)
	}
	return script
}

// FuzzFloodDedupDifferential checks the sorted per-source bitsets against a
// map reference on arbitrary scripts: out-of-order seqs, seqs past one
// bitset word, sources up to maxNodes, and echoes of the node's own sends.
func FuzzFloodDedupDifferential(f *testing.F) {
	f.Add(floodSeed(f))
	var edges []byte
	for _, s := range []struct {
		own bool
		src link.NodeID
		seq uint64
	}{
		{false, 5, 200}, {false, 5, 3}, {false, 5, 200}, {false, 5, 64}, {false, 5, 63}, {false, 5, 64},
		{false, scriptIDs - 1, 999_999}, {false, 2, 0}, {false, scriptIDs - 1, 999_999},
		{true, 0, 0}, {false, 0, 1}, {false, 0, 2}, {true, 0, 0}, {false, 0, 2}, {false, 1, 1},
	} {
		edges = append(edges, encodeStep(s.own, s.src, s.seq)...)
	}
	f.Add(edges)
	f.Fuzz(runDedupScript)
}

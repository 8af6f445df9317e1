package experiment

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"innercircle/internal/scenario"
	"innercircle/internal/sensor"
	"innercircle/internal/trace"
)

// wireTally renders a tracer's per-type transmissions and bytes, one
// "type frames bytes" line per type in name order.
func wireTally(tr *trace.Tracer) string {
	counts, bytes := tr.Counts(), tr.Bytes()
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %d %d\n", name, counts[name], bytes[name])
	}
	return b.String()
}

// TestWireAccountingPinned pins what the tracer counts — frames and bytes
// per message type — for one Fig. 7 row and one Fig. 8 pair to numbers
// recorded before hop counts moved from the messages into the link
// envelope. scripts/bench's wire.* metrics read these counters, so a
// change that claims to leave the traffic alone must leave them equal.
func TestWireAccountingPinned(t *testing.T) {
	bh := PaperBlackholeConfig()
	bh.Seed, bh.Malicious, bh.IC, bh.L, bh.SimTime = 1, 4, true, 2, 30
	bh.Tracer = trace.New(0)
	if _, err := RunBlackhole(bh); err != nil {
		t.Fatal(err)
	}
	if got := wireTally(bh.Tracer); got != wantFig7Wire {
		t.Errorf("Fig. 7 row (IC, L=2, 4 black holes, 30 s, seed 1) wire tally:\n%s\nwant:\n%s", got, wantFig7Wire)
	}

	sn := PaperSensorConfig()
	sn.Seed, sn.IC, sn.L, sn.Fault, sn.SimTime = 1, true, 3, sensor.FaultInterference, 80
	for _, noTarget := range []bool{false, true} {
		sn.NoTarget = noTarget
		spec, _, err := sensorSpec(sn)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(0)
		spec.Stack.Tracer = tr
		if _, err := scenario.Run(spec); err != nil {
			t.Fatal(err)
		}
		if got, want := wireTally(tr), wantFig8Wire[noTarget]; got != want {
			t.Errorf("Fig. 8 pair (IC, L=3, interference, 80 s, seed 1), no target %v, wire tally:\n%s\nwant:\n%s", noTarget, got, want)
		}
	}
}

const wantFig7Wire = `aodv.Data 2894 1481728
aodv.RERR 163 1956
aodv.RREP 203 4060
aodv.RREQ 2208 52992
sts.BeaconMsg 1602 266704
vote.AckMsg 915 54900
vote.AgreedMsg 161 27048
vote.ProposeMsg 183 10980
`

var wantFig8Wire = map[bool]string{
	false: `diffusion.DataMsg 2959 627308
diffusion.InterestMsg 400 6400
sts.BeaconMsg 200 29103
vote.AckMsg 293 17580
vote.AgreedMsg 30 5880
vote.ProposeMsg 30 12119
vote.SolicitMsg 146 7592
vote.ValueMsg 235 27259
`,
	true: `diffusion.InterestMsg 398 6368
sts.BeaconMsg 200 29103
vote.SolicitMsg 122 6344
vote.ValueMsg 16 1856
`,
}

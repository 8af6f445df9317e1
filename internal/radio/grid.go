package radio

import (
	"math"

	"innercircle/internal/geo"
	"innercircle/internal/sim"
)

// gridIndex is a uniform spatial hash over transceiver positions with cell
// edge equal to the transmission range. Because the cell edge equals the
// range, every transceiver within range of a sender is guaranteed to sit in
// the 3×3 cell neighborhood around the sender's cell, so Send only visits
// that neighborhood (chanShard.candidates, the one indexed enumerator)
// instead of scanning all N transceivers.
//
// Static transceivers are binned once at Attach. Mobile ones are re-binned
// lazily: the first query of each virtual-time epoch (a distinct kernel
// timestamp) refreshes their cells, so the index is exact at query time and
// waypoint-mobility nodes are never missed. The index is behaviorally
// invisible — candidates are visited in ascending transceiver ID, the same
// relative order as the full scan, so event sequence numbers, delivered and
// collided frame sets, and energy totals stay byte-identical with the index
// on or off.
type gridIndex struct {
	inv   float64 // 1 / cell edge
	cells map[cellKey][]int32

	// mobile lists the indices of transceivers whose position can change;
	// static ones keep their Attach-time cell forever.
	mobile  []int32
	binTime sim.Time
	dirty   bool // a mobile transceiver attached since the last re-bin
}

// cellKey packs a cell's integer coordinates into one map key.
type cellKey int64

func newGridIndex(cellEdge float64) *gridIndex {
	return &gridIndex{inv: 1 / cellEdge, cells: map[cellKey][]int32{}}
}

func (g *gridIndex) keyAt(cx, cy int32) cellKey {
	return cellKey(int64(cx)<<32 | int64(uint32(cy)))
}

// cellOf returns the integer coordinates of the cell containing p.
func (g *gridIndex) cellOf(p geo.Point) (cx, cy int32) {
	return int32(math.Floor(p.X * g.inv)), int32(math.Floor(p.Y * g.inv))
}

func (g *gridIndex) keyFor(p geo.Point) cellKey { return g.keyAt(g.cellOf(p)) }

// add registers a newly attached transceiver. Static transceivers go
// straight into their cell; mobile ones are picked up by the next re-bin.
func (g *gridIndex) add(tr *Transceiver) {
	i := int32(tr.id)
	if tr.static {
		key := g.keyFor(tr.cachedPos)
		g.cells[key] = append(g.cells[key], i)
		tr.binKey = key
		tr.inGrid = true
		return
	}
	g.mobile = append(g.mobile, i)
	g.dirty = true
}

// rebin refreshes every mobile transceiver's cell for the current epoch,
// caching its position for the queries that follow at the same timestamp.
func (g *gridIndex) rebin(c *Channel, now sim.Time) {
	for _, i := range g.mobile {
		tr := c.trs[i]
		key := g.keyFor(c.posAt(tr, now))
		if tr.inGrid && key == tr.binKey {
			continue
		}
		if tr.inGrid {
			g.removeFromCell(i, tr.binKey)
		}
		g.cells[key] = append(g.cells[key], i)
		tr.binKey = key
		tr.inGrid = true
	}
	g.binTime = now
	g.dirty = false
}

// removeFromCell swap-removes index i from its cell; cell order carries no
// meaning (queries sort their candidates, see chanShard.candidates).
func (g *gridIndex) removeFromCell(i int32, key cellKey) {
	s := g.cells[key]
	for j, v := range s {
		if v == i {
			last := len(s) - 1
			s[j] = s[last]
			g.cells[key] = s[:last]
			return
		}
	}
}

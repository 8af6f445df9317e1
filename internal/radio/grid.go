package radio

import (
	"math"

	"innercircle/internal/geo"
)

// gridIndex is a uniform spatial hash over the positions of the static
// transceivers, with cell edge equal to the transmission range: what a
// receiver-table build (Channel.receivers) reads instead of measuring all N
// of them. Each is binned once, at Attach, and the index is never written
// again — which is what lets the shards of a sharded channel (all static)
// query it concurrently. Transceivers that move are not indexed; the channel
// lists them (Channel.movers).
type gridIndex struct {
	inv   float64 // 1 / cell edge
	cells map[cellKey][]int32
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

// add bins a newly attached static transceiver.
func (g *gridIndex) add(tr *Transceiver) {
	key := g.keyFor(tr.cachedPos)
	g.cells[key] = append(g.cells[key], int32(tr.id))
}

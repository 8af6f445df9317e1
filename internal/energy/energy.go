// Package energy implements the ns-2 style per-node energy model used by
// both of the paper's experiments: a node draws idle power continuously and
// additional power while transmitting or receiving. The parameter boxes of
// Fig. 7 and Fig. 8 give Tx 660 mW, Rx 395 mW, Idle 35 mW.
package energy

import "innercircle/internal/sim"

// Params are the radio power draws, in watts.
type Params struct {
	TxPower   float64
	RxPower   float64
	IdlePower float64
}

// NS2Default returns the power parameters from the paper's simulation boxes.
func NS2Default() Params {
	return Params{TxPower: 0.660, RxPower: 0.395, IdlePower: 0.035}
}

// Meter accumulates one node's energy consumption. Transmission and
// reception intervals are accounted as the *difference* between the active
// power and idle power, with idle power integrated over the whole run; this
// matches ns-2's accounting where the radio is never off.
type Meter struct {
	params Params
	txTime sim.Duration
	rxTime sim.Duration
	extra  float64 // processing energy (e.g. cryptography), joules
}

// NewMeter returns a meter with the given power parameters.
func NewMeter(p Params) *Meter { return &Meter{params: p} }

// AddTx records d seconds spent transmitting.
func (m *Meter) AddTx(d sim.Duration) {
	if d > 0 {
		m.txTime += d
	}
}

// AddRx records d seconds spent receiving.
func (m *Meter) AddRx(d sim.Duration) {
	if d > 0 {
		m.rxTime += d
	}
}

// AddEnergy records j joules of non-radio processing energy (the crypto
// cost model charges signing/verification here).
func (m *Meter) AddEnergy(j float64) {
	if j > 0 {
		m.extra += j
	}
}

// TxTime returns the cumulative transmission time in seconds.
func (m *Meter) TxTime() sim.Duration { return m.txTime }

// RxTime returns the cumulative reception time in seconds.
func (m *Meter) RxTime() sim.Duration { return m.rxTime }

// Consumed returns the energy in joules consumed by time elapsed (the total
// virtual time the node has existed).
func (m *Meter) Consumed(elapsed sim.Duration) float64 {
	if elapsed < 0 {
		elapsed = 0
	}
	idle := float64(m.params.IdlePower * float64(elapsed))
	tx := float64((m.params.TxPower - m.params.IdlePower) * float64(m.txTime))
	rx := float64((m.params.RxPower - m.params.IdlePower) * float64(m.rxTime))
	return idle + tx + rx + m.extra
}

// Package sensor implements the target detection/localization model of
// §5.2: the polynomial energy-decay law (Eqn. 4), Gaussian measurement
// noise, the Neyman–Pearson energy detector, the target-distance inverse,
// and the four sensor fault models the paper injects (stuck-at-zero,
// calibration error, signal interference, positioning error).
package sensor

import (
	"encoding/binary"
	"fmt"
	"math"

	"innercircle/internal/geo"
	"innercircle/internal/sim"
)

// SignalModel is the emitted-energy decay law of Eqn. 4:
//
//	S_i(u) = K·T                    if d < d0
//	         K·T / (d/d0)^k         otherwise
type SignalModel struct {
	// KT is the product K·T: power at the target times sampling duration.
	KT float64 `json:"kt"`
	// K is the decay exponent k (the paper uses 2).
	K float64 `json:"k"`
	// D0 is the reference distance d0.
	D0 float64 `json:"d0"`
	// SigmaN is the noise standard deviation σ_N; measured energy is
	// E = S + N² with N ~ N(0, σ_N).
	SigmaN float64 `json:"sigma_n"`
}

// Paper returns the Fig. 8 parameter box: K·T = 20000, k = 2, σ_N = 1,
// d0 = 1 m.
func Paper() SignalModel {
	return SignalModel{KT: 20000, K: 2, D0: 1, SigmaN: 1}
}

// SignalAt returns S(d), the noiseless received signal energy at distance
// d from the target.
func (m SignalModel) SignalAt(d float64) float64 {
	if d < m.D0 {
		return m.KT
	}
	return m.KT / math.Pow(d/m.D0, m.K)
}

// DistanceFor inverts SignalAt: the distance at which the signal equals e.
// Values above the close-range plateau map to d0.
func (m SignalModel) DistanceFor(e float64) (float64, error) {
	if e <= 0 {
		return 0, fmt.Errorf("sensor: non-positive energy %v", e)
	}
	if e >= m.KT {
		return m.D0, nil
	}
	return m.D0 * math.Pow(m.KT/e, 1/m.K), nil
}

// NeymanPearsonLambda is the paper's detection threshold λ = 6.635: with
// E = N² and N ~ N(0,1), E is χ²₁-distributed and P{χ²₁ > 6.635} = 0.01,
// giving a per-sample false-alarm probability α = 1%.
const NeymanPearsonLambda = 6.635

// FaultKind enumerates the §5.2 sensor fault models.
type FaultKind int

// Fault models.
const (
	FaultNone FaultKind = iota
	// FaultStuckAtZero: the sensor constantly reports E = 0.
	FaultStuckAtZero
	// FaultCalibration: readings carry a multiplicative error ε_clbr.
	FaultCalibration
	// FaultInterference: the noise term is amplified by ε_intf >> 1.
	FaultInterference
	// FaultPosition: the node misestimates its own position (uniform over
	// the deployment region).
	FaultPosition
)

// String implements fmt.Stringer.
func (f FaultKind) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultStuckAtZero:
		return "stuck-at-zero"
	case FaultCalibration:
		return "calibration"
	case FaultInterference:
		return "interference"
	case FaultPosition:
		return "position"
	default:
		return "unknown"
	}
}

// ParseFaultKind inverts String: the name of a fault model (as used in
// flags and the experiment service's JSON grids) back to its kind.
func ParseFaultKind(s string) (FaultKind, error) {
	for _, f := range AllFaultKinds() {
		if f.String() == s {
			return f, nil
		}
	}
	return FaultNone, fmt.Errorf("sensor: unknown fault kind %q", s)
}

// MarshalText implements encoding.TextMarshaler: fault kinds travel as
// their names in JSON (grids and manifests stay human-auditable).
func (f FaultKind) MarshalText() ([]byte, error) {
	if f < FaultNone || f > FaultPosition {
		return nil, fmt.Errorf("sensor: unknown fault kind %d", int(f))
	}
	return []byte(f.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (f *FaultKind) UnmarshalText(b []byte) error {
	k, err := ParseFaultKind(string(b))
	if err != nil {
		return err
	}
	*f = k
	return nil
}

// AllFaultKinds lists the sweep order used by Fig. 8 (no-fault first).
func AllFaultKinds() []FaultKind {
	return []FaultKind{FaultNone, FaultInterference, FaultCalibration, FaultStuckAtZero, FaultPosition}
}

// FaultParams are the fault-model magnitudes from the Fig. 8 box.
type FaultParams struct {
	Eclbr float64 `json:"eclbr"` // calibration multiplier (paper: 2)
	Eintf float64 `json:"eintf"` // interference noise multiplier (paper: 10)
}

// PaperFaults returns ε_clbr = 2, ε_intf = 10.
func PaperFaults() FaultParams { return FaultParams{Eclbr: 2, Eintf: 10} }

// Device is one node's sensor. Not safe for concurrent use.
type Device struct {
	model   SignalModel
	truePos geo.Point
	// reportedPos is what the node believes its position is (differs from
	// truePos under FaultPosition).
	reportedPos geo.Point
	fault       FaultKind
	params      FaultParams
	lambda      float64
	rng         *sim.RNG
}

// NewDevice creates a healthy sensor at pos.
func NewDevice(model SignalModel, pos geo.Point, lambda float64, rng *sim.RNG) *Device {
	return &Device{
		model:       model,
		truePos:     pos,
		reportedPos: pos,
		lambda:      lambda,
		rng:         rng,
	}
}

// InjectFault switches the device into a fault mode. For FaultPosition the
// bogus self-position is drawn uniformly from region.
func (d *Device) InjectFault(kind FaultKind, params FaultParams, region geo.Rect) {
	d.fault = kind
	d.params = params
	if kind == FaultPosition {
		d.reportedPos = geo.Point{
			X: d.rng.Uniform(region.MinX, region.MaxX),
			Y: d.rng.Uniform(region.MinY, region.MaxY),
		}
	}
}

// Fault returns the injected fault kind.
func (d *Device) Fault() FaultKind { return d.fault }

// ReportedPos returns the node's own position estimate (bogus under the
// positioning fault).
func (d *Device) ReportedPos() geo.Point { return d.reportedPos }

// TruePos returns the physical position.
func (d *Device) TruePos() geo.Point { return d.truePos }

// Reading is one sensing sample.
type Reading struct {
	Energy   float64
	Detected bool
}

// Sample senses the environment. target is nil when no target is present.
func (d *Device) Sample(target *geo.Point) Reading {
	var signal float64
	if target != nil {
		signal = d.model.SignalAt(d.truePos.Dist(*target))
	}
	n := d.rng.Normal(0, d.model.SigmaN)
	noise := float64(n * n)
	var e float64
	switch d.fault {
	case FaultStuckAtZero:
		e = 0
	case FaultCalibration:
		e = d.params.Eclbr * (signal + noise)
	case FaultInterference:
		e = signal + float64(d.params.Eintf*noise)
	default: // FaultNone, FaultPosition: the reading itself is healthy
		e = signal + noise
	}
	return Reading{Energy: e, Detected: e > d.lambda}
}

// Notification is the target report a sensor sends toward the base
// station: detection time t_i, sensed energy E_i, and estimated target
// position u_i (§5.2 uses the sensor's own position as the local
// estimate).
type Notification struct {
	Time   sim.Time
	Energy float64
	Pos    geo.Point
}

// Encode serializes a notification for voting/transport (32 bytes).
func (n Notification) Encode() []byte {
	buf := make([]byte, 32)
	binary.BigEndian.PutUint64(buf[0:], math.Float64bits(float64(n.Time)))
	binary.BigEndian.PutUint64(buf[8:], math.Float64bits(n.Energy))
	binary.BigEndian.PutUint64(buf[16:], math.Float64bits(n.Pos.X))
	binary.BigEndian.PutUint64(buf[24:], math.Float64bits(n.Pos.Y))
	return buf
}

// DecodeNotification reverses Encode.
func DecodeNotification(b []byte) (Notification, error) {
	if len(b) != 32 {
		return Notification{}, fmt.Errorf("sensor: bad notification length %d", len(b))
	}
	return Notification{
		Time:   sim.Time(math.Float64frombits(binary.BigEndian.Uint64(b[0:]))),
		Energy: math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
		Pos: geo.Point{
			X: math.Float64frombits(binary.BigEndian.Uint64(b[16:])),
			Y: math.Float64frombits(binary.BigEndian.Uint64(b[24:])),
		},
	}, nil
}

// Target is an event of interest that emits energy during [Start, End].
type Target struct {
	Pos   geo.Point
	Start sim.Time
	End   sim.Time
}

// ActiveAt reports whether the target is emitting at time t.
func (t Target) ActiveAt(at sim.Time) bool { return at >= t.Start && at < t.End }

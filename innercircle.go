// Package innercircle is a Go implementation of inner-circle consistency
// for wireless ad hoc networks, reproducing "Neutralization of Errors and
// Attacks in Wireless Ad Hoc Networks" (Basile, Kalbarczyk, Iyer — DSN
// 2005).
//
// Inner-circle consistency neutralizes errors and attacks at their source:
// before a node's value propagates into the network, the node's one-hop
// neighbours (its inner circle) validate it — with an application-aware
// check (deterministic voting) or by statistically fusing it with their own
// observations (statistical voting) — and co-sign the result with an
// (L+1)-threshold signature. Remote recipients verify the signature to
// confirm that L+1 nodes vouched for the value.
//
// The package exposes four layers:
//
//   - the fault-tolerant fusion algorithms of §4.3 (FTCluster, FTMean,
//     Trilaterate) — pure functions usable on their own;
//   - the threshold-signature schemes of §2 (NewRSADealer, NewSimDealer,
//     DealRing);
//   - the simulated wireless network substrate and the inner-circle
//     framework node stack (BuildNetwork), for constructing custom
//     scenarios; and
//   - the paper's two evaluation scenarios, runnable one replica at a time
//     (RunBlackhole, RunSensor) or as a whole parameter grid: a
//     GridRequest — one of the presets Fig7Grid, Fig8Grid, CoverageGrid
//     and ChurnGrid, adjusted field by field — evaluated by RunGrid, the
//     same request and the same runner cmd/icsweep and the icserved
//     experiment service use (ExampleRunGrid is a worked example).
//
// The examples/ directory demonstrates each layer; cmd/icsweep prints
// every figure of the paper's evaluation.
package innercircle

import (
	"io"

	"innercircle/internal/crypto/thresh"
	"innercircle/internal/experiment"
	"innercircle/internal/faults"
	"innercircle/internal/fusion"
	"innercircle/internal/geo"
	"innercircle/internal/node"
	"innercircle/internal/scenario"
	"innercircle/internal/sensor"
	"innercircle/internal/stats"
	"innercircle/internal/vote"
)

// ---- Fault-tolerant fusion (§4.3) ---------------------------------------

// Vec is an n-dimensional observation for the fusion algorithms.
type Vec = fusion.Vec

// FTClusterResult reports the outcome of the fault-tolerant cluster
// algorithm: the estimate, the surviving observation indices, and the
// removal order of excluded ones.
type FTClusterResult = fusion.FTClusterResult

// Point is a 2-D position in metres.
type Point = geo.Point

// FTCluster runs the paper's Fault-Tolerant Cluster algorithm (Fig. 4):
// repeatedly exclude the observation whose leave-one-out distance from the
// rest is largest and exceeds eta, then estimate by the centroid of the
// surviving cluster. Unlike the fault-tolerant mean, it discards nothing
// when all observations are consistent.
func FTCluster(points []Vec, eta float64) (FTClusterResult, error) {
	return fusion.FTCluster(points, eta)
}

// FTMean is the classic fault-tolerant mean baseline (Dolev et al.):
// per coordinate, drop the f smallest and f largest observations and
// average the rest.
func FTMean(points []Vec, f int) (Vec, error) { return fusion.FTMean(points, f) }

// Trilaterate estimates a target position from three anchors and measured
// distances.
func Trilaterate(a1, a2, a3 Point, d1, d2, d3 float64) (Point, error) {
	return fusion.Trilaterate(a1, a2, a3, d1, d2, d3)
}

// TrilaterateAll enumerates anchor triples (up to maxTriples; 0 = all) and
// returns every non-degenerate estimate — the candidate set the sensor
// scenario filters with FTCluster.
func TrilaterateAll(anchors []Point, dists []float64, maxTriples int) []Point {
	return fusion.TrilaterateAll(anchors, dists, maxTriples)
}

// WorstCaseError returns E*, the worst-case estimation error F colluding
// observations (of N total) can add to the FT-cluster estimate when the
// correct observations span deltaC (§4.3, result 2).
func WorstCaseError(f, n int, deltaC float64) float64 {
	return fusion.WorstCaseError(f, n, deltaC)
}

// ---- Threshold signatures (§2) ------------------------------------------

// Threshold-signature types (see internal/crypto/thresh).
type (
	// Dealer runs a group key's lifecycle: Deal (§2's trusted dealer) or
	// dealerless DKG, then proactive Refresh (§2's deferred extension)
	// and membership Reshare. Both dealers implement all four.
	Dealer = thresh.Dealer
	// GroupKey is the public side of a dealt key: combine and verify. Its
	// Epoch counts the refreshes and reshares it has lived through, and
	// keys the verification memo so verdicts never cross an epoch.
	GroupKey = thresh.GroupKey
	// Signer is one node's share: it produces partial signatures.
	Signer = thresh.Signer
	// Partial is one share's contribution to a signature.
	Partial = thresh.Partial
	// Signature is a combined threshold signature.
	Signature = thresh.Signature
)

// NewRSADealer returns the faithful Shoup-style threshold RSA dealer with
// the given modulus size (the paper uses 1024- and 512-bit keys), drawing
// every prime and share from rand: a seeded rand deals the same keys in
// every process, and a nil rand makes every deal fail.
func NewRSADealer(bits int, rand io.Reader) Dealer { return &thresh.RSADealer{Bits: bits, Rand: rand} }

// NewSimDealer returns the keyed-MAC stand-in dealer used for large
// parameter sweeps; signatures report wireBytes as their transport size.
func NewSimDealer(seed []byte, wireBytes int) Dealer {
	return thresh.NewSimDealer(seed, wireBytes)
}

// Dealerless key generation (VSS with complaint/blame rounds), run by
// Dealer.DKG.
type (
	// DKGConfig parameterizes one dealerless key generation.
	DKGConfig = thresh.DKGConfig
	// DKGResult reports the generated key plus the qualification outcome:
	// who was blamed with proof, who stayed silent, who qualified.
	DKGResult = thresh.DKGResult
	// DKGFault scripts one participant's misbehaviour during keygen.
	DKGFault = thresh.DKGFault
)

// DKG participant behaviours.
const (
	// DKGHonest follows the protocol.
	DKGHonest = thresh.DKGHonest
	// DKGCheatThenReveal deals a contradictory sub-share but opens it when
	// challenged; the complaint resolves and the dealer survives.
	DKGCheatThenReveal = thresh.DKGCheatThenReveal
	// DKGCheatStubborn deals a contradictory sub-share and refuses to open
	// it; the participant is blamed with proof and excluded.
	DKGCheatStubborn = thresh.DKGCheatStubborn
	// DKGSilent never deals; the participant is excluded without proof.
	DKGSilent = thresh.DKGSilent
)

// PublicRing maps dependability level L to its group key.
type PublicRing = vote.PublicRing

// NodeKeys maps dependability level L to one node's signer.
type NodeKeys = vote.NodeKeys

// DealRing deals one group key per dependability level 1..maxL among n
// nodes — the trusted-dealer initialization of §2.
func DealRing(dealer Dealer, maxL, n int) (PublicRing, []NodeKeys, error) {
	return vote.DealRing(dealer, maxL, n)
}

// DKGRing generates one group key per dependability level 1..maxL among n
// nodes with dealerless keygen, scripted faults optional. It returns the
// ring, per-node signers (empty for excluded participants), and the
// 0-based indices blamed with proof and excluded for silence.
func DKGRing(dealer Dealer, maxL, n int, dkgFaults map[int]DKGFault) (PublicRing, []NodeKeys, []int, []int, error) {
	return vote.DKGRing(dealer, maxL, n, dkgFaults)
}

// LevelFor computes the §4.2 dependability level L = N − F − 1 for an
// inner circle of n nodes under a failure budget of fb Byzantine nodes,
// fc crashes and fl broken links.
func LevelFor(n, fb, fc, fl int) (int, error) { return vote.LevelFor(n, fb, fc, fl) }

// ByzantineLevel returns the level realizing the standard Byzantine-
// agreement special case (L+1 = ⌈2N/3⌉) for an n-node inner circle.
func ByzantineLevel(n int) (int, error) { return vote.ByzantineLevel(n) }

// ---- Network substrate ---------------------------------------------------

// Network-construction types (see internal/node).
type (
	// NetworkConfig describes a simulated deployment.
	NetworkConfig = node.Config
	// Network is a built deployment: kernel, channel, nodes, keys.
	Network = node.Network
	// Node is one assembled protocol stack (Fig. 1).
	Node = node.Node
)

// BuildNetwork assembles a simulated wireless network per the
// configuration; see examples/quickstart for a complete walkthrough.
func BuildNetwork(cfg NetworkConfig) (*Network, error) { return node.Build(cfg) }

// Membership drives inner-circle membership-epoch transitions on a built
// network: Leave/Crash/Join plus Reshare and Refresh, draining in-flight
// votes and re-announcing via STS at each epoch. Obtain one with
// (*Network).Membership().
type Membership = node.Membership

// MembershipStats counts a Membership manager's lifecycle activity.
type MembershipStats = node.MembershipStats

// ---- Paper experiments ----------------------------------------------------

// Experiment configuration and result types (see internal/experiment).
type (
	// BlackholeConfig parameterizes the §5.1 AODV black-hole scenario.
	BlackholeConfig = experiment.BlackholeConfig
	// BlackholeResult is one run's outcome.
	BlackholeResult = experiment.BlackholeResult
	// SensorConfig parameterizes the §5.2 sensor scenario.
	SensorConfig = experiment.SensorConfig
	// SensorResult is one run's outcome.
	SensorResult = experiment.SensorResult
	// FaultKind enumerates the §5.2 sensor fault models.
	FaultKind = sensor.FaultKind
	// FusionAlg selects the statistical fusion algorithm for the sensor
	// scenario (ablation A3 in situ).
	FusionAlg = experiment.FusionAlg
	// Table accumulates a figure's rows across runs.
	Table = stats.Table
	// Churn declares a membership-churn schedule for a scenario: crash-
	// and-rejoin cycles, permanent leaves, and the reshare/refresh policy.
	Churn = scenario.Churn
)

// Reshare policies for Churn.Reshare.
const (
	// ReshareOnEvent reshares after every membership event (the default).
	ReshareOnEvent = scenario.ReshareOnEvent
	// ReshareEvery reshares on a fixed interval.
	ReshareEvery = scenario.ReshareEvery
	// ReshareOff never reshares (departed members keep verifying shares).
	ReshareOff = scenario.ReshareOff
)

// Sensor fault models (§5.2).
const (
	FaultNone         = sensor.FaultNone
	FaultStuckAtZero  = sensor.FaultStuckAtZero
	FaultCalibration  = sensor.FaultCalibration
	FaultInterference = sensor.FaultInterference
	FaultPosition     = sensor.FaultPosition
)

// Fusion algorithms for SensorConfig.Fusion.
const (
	FusionCluster = experiment.FusionCluster
	FusionMean    = experiment.FusionMean
	FusionNaive   = experiment.FusionNaive
)

// PaperBlackholeConfig returns the Fig. 7 simulation-parameter box.
func PaperBlackholeConfig() BlackholeConfig { return experiment.PaperBlackholeConfig() }

// PaperSensorConfig returns the Fig. 8 simulation-parameter box.
func PaperSensorConfig() SensorConfig { return experiment.PaperSensorConfig() }

// RunBlackhole executes one Fig. 7 run.
func RunBlackhole(cfg BlackholeConfig) (BlackholeResult, error) {
	return experiment.RunBlackhole(cfg)
}

// RunSensor executes one Fig. 8 run.
func RunSensor(cfg SensorConfig) (SensorResult, error) {
	return experiment.RunSensor(cfg)
}

// GridRequest describes one parameter sweep: a kind ("blackhole",
// "sensor", "campaign" or "churn"), the base config, the kind's column
// axis, the IC levels and the runs per point. Its JSON form is what the
// icserved experiment service accepts.
type GridRequest = experiment.GridRequest

// RunGrid evaluates a grid on the parallel worker pool and returns the
// kind's tables in render order — Fig. 7 (a)–(b), Fig. 8 (a)–(f),
// throughput/energy plus four coverage or lifecycle counters for campaign
// and churn grids; g.Render(tables) is cmd/icsweep's stdout. Same request,
// byte-identical tables at any IC_WORKERS setting and shard count. A
// non-nil progress receives one line per finished replica.
func RunGrid(g *GridRequest, progress io.Writer) ([]*Table, error) {
	return experiment.RunGrid(g, progress)
}

// Fig7Grid is Fig. 7: AODV under 0..10 black holes, No IC and IC at L=1, 2.
// Like every preset it takes the base seed, the runs per grid point (the
// paper averages 50) and quick, which selects a reduced shape at 2 runs;
// adjust the returned request's fields to sweep something else.
func Fig7Grid(seed int64, runs int, quick bool) *GridRequest {
	return experiment.Fig7Grid(seed, runs, quick)
}

// Fig8Grid is Fig. 8: the sensor network under the four sensor fault
// models, centralized and IC at L=2..7.
func Fig8Grid(seed int64, runs int, quick bool) *GridRequest {
	return experiment.Fig8Grid(seed, runs, quick)
}

// CoverageGrid sweeps one fault campaign per fault class over the Fig. 7
// network and adds the injected/suppressed/leaked coverage tables; put
// your own campaigns in its Campaigns field.
func CoverageGrid(seed int64, runs int, quick bool) *GridRequest {
	return experiment.CoverageGrid(seed, runs, quick)
}

// ChurnGrid sweeps crash-and-rejoin rates over the Fig. 8 network at
// three IC levels and adds the membership-lifecycle tables (transitions,
// reshares, aborted rounds, final epoch).
func ChurnGrid(seed int64, runs int, quick bool) *GridRequest {
	return experiment.ChurnGrid(seed, runs, quick)
}

// AllFaultKinds lists the Fig. 8 fault sweep order.
func AllFaultKinds() []FaultKind { return sensor.AllFaultKinds() }

// ---- Fault-injection campaigns (internal/faults) --------------------------

// Fault-campaign types; see internal/faults for the fault catalogue and
// README for the JSON schema.
type (
	// Campaign is a named, declarative fault/attack scenario.
	Campaign = faults.Campaign
	// CampaignEntry is one (fault, params, targets, schedule) line.
	CampaignEntry = faults.Entry
)

// LoadCampaign reads and validates a campaign JSON file.
func LoadCampaign(path string) (Campaign, error) { return faults.Load(path) }

// ParseCampaign decodes and validates campaign JSON.
func ParseCampaign(data []byte) (Campaign, error) { return faults.Parse(data) }

// ParsePreset builds a preset campaign from a shorthand spec such as
// "blackhole:3", "grayhole:3:0.5" or "churn:3:30:10".
func ParsePreset(spec string) (Campaign, error) { return faults.ParsePreset(spec) }

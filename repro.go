// Package repro is a from-scratch Go reproduction of "Better Bounds for
// Coalescing-Branching Random Walks" (Mitzenmacher, Rajaraman, Roche —
// SPAA 2016). It provides:
//
//   - the k-cobra walk engine (CobraWalk) — the paper's central process,
//   - the analysis-device processes: the Walt coalescing process
//     (Section 4), the two-pebble tensor joint walk (Lemma 11), biased
//     random walks with controllers (Section 5), and the queueing-view
//     drift chain (Section 3),
//   - a CSR graph library with every family the paper's bounds touch
//     (grids, tori, hypercubes, expanders, trees, stars, lollipops,
//     power-law and geometric random graphs, ...),
//   - spectral estimators for conductance and mixing,
//   - baseline processes (simple/lazy/parallel random walks, push and
//     push-pull gossip), and
//   - the experiment harness that regenerates every theorem-validation
//     table in EXPERIMENTS.md.
//
// Quickstart:
//
//	g := repro.Grid(2, 33)                       // the grid [0,32]²
//	steps, ok := repro.CoverTime(g, 2, 0, 42)    // 2-cobra walk from vertex 0
//	fmt.Println(steps, ok)
//
// All processes are deterministic given a seed; parallel trials use
// derived per-trial streams (see RunTrials).
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/epidemic"
	"repro/internal/experiments"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/queue"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectral"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/walk"
	"repro/internal/walt"
)

// ---------------------------------------------------------------------------
// Random sources
// ---------------------------------------------------------------------------

// Rand is the xoshiro256++ random source used by all processes.
type Rand = rng.Source

// NewRand returns a deterministic random source for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// NewTrialRand returns the random source of logical trial i under the
// given root seed; distinct trials get independent streams.
func NewTrialRand(root uint64, trial int) *Rand { return rng.NewStream(root, trial) }

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

// Graph is an immutable undirected graph in compressed-sparse-row form.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int, name string) *GraphBuilder { return graph.NewBuilder(n, name) }

// Grid returns the d-dimensional grid with side points per dimension;
// the paper's [0,n]^d is Grid(d, n+1).
func Grid(d, side int) *Graph { return graph.Grid(d, side) }

// Torus returns the d-dimensional torus with side points per dimension.
func Torus(d, side int) *Graph { return graph.Torus(d, side) }

// Cycle returns the n-cycle.
func Cycle(n int) *Graph { return graph.Cycle(n) }

// Path returns the path on n vertices.
func Path(n int) *Graph { return graph.Path(n) }

// Complete returns the complete graph K_n.
func Complete(n int) *Graph { return graph.Complete(n) }

// Star returns the star with one hub and n-1 leaves.
func Star(n int) *Graph { return graph.Star(n) }

// Wheel returns the wheel graph on n vertices.
func Wheel(n int) *Graph { return graph.Wheel(n) }

// Lollipop returns a clique with an attached path, the Θ(n³)
// random-walk worst case of Theorem 20's baseline.
func Lollipop(cliqueSize, pathLen int) *Graph { return graph.Lollipop(cliqueSize, pathLen) }

// Barbell returns two cliques joined by a path.
func Barbell(cliqueSize, pathLen int) *Graph { return graph.Barbell(cliqueSize, pathLen) }

// KAryTree returns the complete k-ary tree of the given depth.
func KAryTree(k, depth int) *Graph { return graph.KAryTree(k, depth) }

// Hypercube returns the dim-dimensional hypercube.
func Hypercube(dim int) *Graph { return graph.Hypercube(dim) }

// Margulis returns the Gabber-Galil Margulis expander on m² vertices.
func Margulis(m int) *Graph { return graph.Margulis(m) }

// CirculantRegular returns the circulant graph with the given strides.
func CirculantRegular(n int, strides []int) *Graph { return graph.CirculantRegular(n, strides) }

// RandomRegular returns a random simple d-regular graph.
func RandomRegular(n, d int, seed uint64) (*Graph, error) { return graph.RandomRegular(n, d, seed) }

// ErdosRenyi returns a G(n, p) random graph, optionally connected.
func ErdosRenyi(n int, p float64, connect bool, seed uint64) *Graph {
	return graph.ErdosRenyi(n, p, connect, seed)
}

// PowerLaw returns a configuration-model power-law random graph.
func PowerLaw(n int, exponent float64, minDeg, maxDeg int, seed uint64) *Graph {
	return graph.PowerLaw(n, exponent, minDeg, maxDeg, seed)
}

// RandomGeometric returns a random geometric graph on the unit square.
func RandomGeometric(n int, radius float64, connect bool, seed uint64) *Graph {
	return graph.RandomGeometric(n, radius, connect, seed)
}

// CartesianProduct returns the Cartesian (box) product G □ H.
func CartesianProduct(g, h *Graph) *Graph { return graph.CartesianProduct(g, h) }

// TensorProduct returns the tensor (categorical) product G × H, the
// undirected graph underlying the paper's D(G×G) construction.
func TensorProduct(g, h *Graph) *Graph { return graph.TensorProduct(g, h) }

// BFS returns BFS distances from src (-1 for unreachable vertices).
func BFS(g *Graph, src int32) []int32 { return graph.BFS(g, src) }

// Diameter returns the exact graph diameter (-1 if disconnected).
func Diameter(g *Graph) int { return graph.Diameter(g) }

// IsConnected reports whether g is connected.
func IsConnected(g *Graph) bool { return graph.IsConnected(g) }

// WriteEdgeList serializes g as a text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadEdgeList parses the WriteEdgeList format.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteDOT serializes g in Graphviz DOT format.
func WriteDOT(w io.Writer, g *Graph) error { return graph.WriteDOT(w, g) }

// ---------------------------------------------------------------------------
// The cobra walk (the paper's contribution)
// ---------------------------------------------------------------------------

// CobraWalk is a running coalescing-branching random walk.
type CobraWalk = core.Walk

// CobraConfig parameterizes a cobra walk (branching factor K, step cap,
// and the dense-kernel switch density DenseTheta).
type CobraConfig = core.Config

// DefaultDenseTheta is the default kernel-switch density θ of the
// dual-mode step engine: rounds whose active set exceeds N/θ run the
// dense word-parallel kernel. See the README's Performance section for
// the determinism contract.
const DefaultDenseTheta = core.DefaultDenseTheta

// NewCobraWalk constructs a cobra walk on g; call Reset before stepping.
func NewCobraWalk(g *Graph, cfg CobraConfig, src *Rand) *CobraWalk {
	return core.New(g, cfg, src)
}

// CoverTime runs a fresh k-cobra walk from start until all vertices are
// covered, returning the number of rounds.
func CoverTime(g *Graph, k int, start int32, seed uint64) (steps int, ok bool) {
	return core.CoverTime(g, k, start, seed)
}

// HittingTime runs a fresh k-cobra walk until target becomes active.
func HittingTime(g *Graph, k int, start, target int32, seed uint64) (steps int, ok bool) {
	return core.HittingTime(g, k, start, target, seed)
}

// MeanCoverTime returns the sample of cover times over independent
// trials (trial i uses stream i of seed).
func MeanCoverTime(g *Graph, k int, start int32, trials int, seed uint64) ([]float64, error) {
	return core.MeanCoverTime(g, k, start, trials, seed)
}

// GridTracker is the pessimistic single-pebble chain of the Theorem 3
// proof.
type GridTracker = core.GridTracker

// NewGridTracker creates a tracked pebble on Grid(d, side).
func NewGridTracker(d, side int, start, target []int, src *Rand) *GridTracker {
	return core.NewGridTracker(d, side, start, target, src)
}

// BranchingFunc decides the per-round branching factor of a generalized
// cobra walk (the §1 variation the paper names but does not study).
type BranchingFunc = core.BranchingFunc

// GeneralCobraWalk is a cobra walk whose branching factor may vary per
// vertex, per round, or randomly: the same engine as CobraWalk, built by
// NewGeneralCobraWalk.
type GeneralCobraWalk = core.Walk

// NewGeneralCobraWalk constructs a generalized cobra walk; maxSteps of
// zero selects an automatic cap.
func NewGeneralCobraWalk(g *Graph, branch BranchingFunc, maxSteps int, src *Rand) *GeneralCobraWalk {
	return core.NewGeneral(g, branch, maxSteps, src)
}

// ConstantBranching returns the standard fixed-k branching.
func ConstantBranching(k int) BranchingFunc { return core.ConstantBranching(k) }

// BernoulliBranching branches k2 ways with probability p, else k1.
func BernoulliBranching(k1, k2 int, p float64) BranchingFunc {
	return core.BernoulliBranching(k1, k2, p)
}

// DegreeCappedBranching branches min(k, d(v)) ways.
func DegreeCappedBranching(g *Graph, k int) BranchingFunc {
	return core.DegreeCappedBranching(g, k)
}

// PeriodicBranching branches k ways every period rounds, else once.
func PeriodicBranching(k, period int) BranchingFunc {
	return core.PeriodicBranching(k, period)
}

// ---------------------------------------------------------------------------
// Analysis-device processes
// ---------------------------------------------------------------------------

// WaltProcess is the Section 4 coalescing process with threshold-3
// coalescence and totally ordered pebbles.
type WaltProcess = walt.Process

// WaltConfig parameterizes a Walt process (laziness, step cap).
type WaltConfig = walt.Config

// NewWalt creates a Walt process with pebble i at positions[i].
func NewWalt(g *Graph, positions []int32, cfg WaltConfig, src *Rand) *WaltProcess {
	return walt.New(g, positions, cfg, src)
}

// NewWaltAtVertex creates a Walt process with count pebbles at start.
func NewWaltAtVertex(g *Graph, count int, start int32, cfg WaltConfig, src *Rand) *WaltProcess {
	return walt.NewAtVertex(g, count, start, cfg, src)
}

// JointWalk is the two-pebble tensor-product walk of Lemma 11.
type JointWalk = tensor.Joint

// NewJointWalk creates a joint walk with the pebbles at si and sj.
func NewJointWalk(g *Graph, si, sj int32, lazy bool, src *Rand) *JointWalk {
	return tensor.NewJoint(g, si, sj, lazy, src)
}

// TensorDigraph is the explicit weighted directed tensor product D(G×G).
type TensorDigraph = tensor.Digraph

// BuildTensorDigraph constructs D(G×G) for a small regular graph.
func BuildTensorDigraph(g *Graph) (*TensorDigraph, error) { return tensor.BuildDirected(g) }

// DriftChain is the Section 3 queueing-view chain.
type DriftChain = queue.DriftChain

// NewDriftChain creates the d-dimensional drift chain with the given
// initial queue lengths.
func NewDriftChain(initial []int, src *Rand) *DriftChain { return queue.New(initial, src) }

// ---------------------------------------------------------------------------
// Baseline walks and gossip
// ---------------------------------------------------------------------------

// SimpleWalk is a simple random walk.
type SimpleWalk = walk.Simple

// NewSimpleWalk creates a simple random walk at start.
func NewSimpleWalk(g *Graph, start int32, src *Rand) *SimpleWalk {
	return walk.NewSimple(g, start, src)
}

// LazyWalk is a lazy random walk (probability 1/2 of standing still).
type LazyWalk = walk.Lazy

// NewLazyWalk creates a lazy random walk at start.
func NewLazyWalk(g *Graph, start int32, src *Rand) *LazyWalk {
	return walk.NewLazy(g, start, src)
}

// ParallelWalks advances k independent random walks in lockstep.
type ParallelWalks = walk.Parallel

// NewParallelWalks creates k walkers at start.
func NewParallelWalks(g *Graph, k int, start int32, src *Rand) *ParallelWalks {
	return walk.NewParallel(g, k, start, src)
}

// BiasedWalk is an ε-biased or inverse-degree-biased walk (Section 5.1).
type BiasedWalk = walk.Biased

// Controller steers a biased walk when it gets control.
type Controller = walk.Controller

// NewGreedyController returns a controller steering along BFS shortest
// paths toward target.
func NewGreedyController(g *Graph, target int32) Controller {
	return walk.NewGreedyController(g, target)
}

// NewEpsilonBiasedWalk creates an ε-biased walk.
func NewEpsilonBiasedWalk(g *Graph, eps float64, ctrl Controller, start int32, src *Rand) *BiasedWalk {
	return walk.NewEpsilonBiased(g, eps, ctrl, start, src)
}

// NewInverseDegreeBiasedWalk creates the paper's inverse-degree-biased
// walk with the given target.
func NewInverseDegreeBiasedWalk(g *Graph, target int32, ctrl Controller, start int32, src *Rand) *BiasedWalk {
	return walk.NewInverseDegreeBiased(g, target, ctrl, start, src)
}

// MarkovChain is a sparse row-stochastic chain over a graph's vertices.
type MarkovChain = walk.Chain

// InverseDegreeMetropolis returns the Lemma 16 Metropolis chain whose
// stationary mass at v is exactly InverseDegreeStationaryBound(g, v).
func InverseDegreeMetropolis(g *Graph, v int32) *MarkovChain {
	return walk.InverseDegreeMetropolis(g, v)
}

// InverseDegreeStationaryBound returns the Lemma 16 lower bound on the
// stationary probability at v achievable by inverse-degree-biased walks.
func InverseDegreeStationaryBound(g *Graph, v int32) float64 {
	return walk.InverseDegreeStationaryBound(g, v)
}

// EpsilonBiasBound returns the Theorem 13 stationary lower bound for the
// target set under an optimal ε-biased walk.
func EpsilonBiasBound(g *Graph, set []int32, eps float64) float64 {
	return walk.EpsilonBiasBound(g, set, eps)
}

// ExactHittingTimes computes exact simple-random-walk hitting times to
// target for every start vertex (Jacobi iteration on the harmonic
// system). Used to validate Monte Carlo estimators.
func ExactHittingTimes(g *Graph, target int32, tol float64, maxIter int) []float64 {
	return walk.ExactHittingTimes(g, target, tol, maxIter)
}

// ExactReturnTime computes the exact expected return time of the simple
// random walk to v (equals 2m/d(v) on connected graphs).
func ExactReturnTime(g *Graph, v int32, tol float64, maxIter int) float64 {
	return walk.ExactReturnTime(g, v, tol, maxIter)
}

// ---------------------------------------------------------------------------
// SIS epidemics (the paper's disease-model motivation)
// ---------------------------------------------------------------------------

// SISConfig parameterizes an SIS epidemic (contacts per round K,
// per-contact transmission Beta, per-round recovery Gamma). Beta = 1,
// Gamma = 1 is the K-cobra walk itself: that idealization steps on a
// CobraWalk, so it reproduces the walk draw for draw.
type SISConfig = epidemic.Config

// SISProcess is a running SIS epidemic.
type SISProcess = epidemic.Process

// SISOutcome describes how an epidemic run ended.
type SISOutcome = epidemic.Outcome

// Epidemic outcomes.
const (
	SISFullExposure = epidemic.FullExposure
	SISExtinction   = epidemic.Extinction
	SISTimeout      = epidemic.Timeout
)

// NewSIS creates an SIS epidemic with the given patient-zero set.
func NewSIS(g *Graph, patientZero []int32, cfg SISConfig, src *Rand) *SISProcess {
	return epidemic.New(g, patientZero, cfg, src)
}

// SISSurvivalProbability estimates the probability that an outbreak
// from patientZero reaches full exposure rather than going extinct.
func SISSurvivalProbability(g *Graph, patientZero int32, cfg SISConfig, trials int, seed uint64) (float64, error) {
	return epidemic.SurvivalProbability(g, patientZero, cfg, trials, seed)
}

// GossipMode selects a rumor-spreading protocol variant.
type GossipMode = gossip.Mode

// Gossip protocol variants.
const (
	Push     = gossip.Push
	Pull     = gossip.Pull
	PushPull = gossip.PushPull
)

// GossipProcess is a running rumor-spreading protocol.
type GossipProcess = gossip.Process

// NewGossip creates a gossip process with the rumor at start.
func NewGossip(g *Graph, mode GossipMode, start int32, src *Rand) *GossipProcess {
	return gossip.New(g, mode, start, src)
}

// ---------------------------------------------------------------------------
// Spectral estimation
// ---------------------------------------------------------------------------

// SpectralResult bundles eigenvalue and conductance estimates.
type SpectralResult = spectral.Result

// AnalyzeSpectrum estimates λ₂, the spectral gap, and conductance
// brackets of g.
func AnalyzeSpectrum(g *Graph) SpectralResult { return spectral.Analyze(g) }

// Conductance returns φ(S) = |∂S| / min(vol(S), vol(V∖S)).
func Conductance(g *Graph, set []int32) float64 { return spectral.Conductance(g, set) }

// ExactConductance computes Φ_G by brute force (n ≤ 24).
func ExactConductance(g *Graph) float64 { return spectral.ExactConductance(g) }

// MixingTime returns the lazy-walk worst-start mixing time to total
// variation eps.
func MixingTime(g *Graph, eps float64, maxSteps int) (int, bool) {
	return spectral.MixingTime(g, eps, maxSteps)
}

// ---------------------------------------------------------------------------
// Statistics and the experiment harness
// ---------------------------------------------------------------------------

// Summary holds descriptive statistics of a sample.
type Summary = stats.Summary

// Summarize computes descriptive statistics of xs.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// MeanCI returns the sample mean and its 95% confidence half-width.
func MeanCI(xs []float64) (mean, halfWidth float64) { return stats.MeanCI(xs) }

// PowerLawFit is a fitted scaling law y = C·x^Exponent.
type PowerLawFit = stats.PowerLawFit

// FitPowerLaw fits y = C·x^e by log-log least squares.
func FitPowerLaw(xs, ys []float64) PowerLawFit { return stats.FitPowerLaw(xs, ys) }

// Table is a rendered experiment result table.
type Table = sim.Table

// Sparkline renders a numeric series as a unicode block sparkline for
// terminal output.
func Sparkline(xs []float64) string { return sim.Sparkline(xs) }

// Downsample reduces a series to at most points entries by bucket
// averaging (for sparkline display).
func Downsample(xs []float64, points int) []float64 { return sim.Downsample(xs, points) }

// TrialFunc runs one Monte Carlo trial.
type TrialFunc = sim.TrialFunc

// RunTrials executes independent trials in parallel with deterministic
// per-trial random streams.
func RunTrials(trials int, seed uint64, fn TrialFunc) ([]float64, error) {
	return sim.RunTrials(trials, seed, fn)
}

// WorkerFunc constructs one worker's trial function, letting it own
// reusable per-worker state (e.g. a pooled CobraWalk reset per trial).
type WorkerFunc = sim.WorkerFunc

// RunTrialsPooled is RunTrials with per-worker state reuse: newWorker
// runs once per worker goroutine and the returned trial function serves
// that worker's trials serially. Determinism is unchanged — trial i
// always consumes stream i of seed.
func RunTrialsPooled(trials int, seed uint64, newWorker WorkerFunc) ([]float64, error) {
	return sim.RunTrialsPooled(trials, seed, newWorker)
}

// ExperimentScale selects Quick (CI-sized) or Full experiment sizing.
type ExperimentScale = experiments.Scale

// Experiment scales.
const (
	QuickScale = experiments.Quick
	FullScale  = experiments.Full
)

// ExperimentResult is the output of one reproduction experiment.
type ExperimentResult = experiments.Result

// Experiments returns the registry of all reproduction experiments
// (E1-E16), in index order.
func Experiments() []experiments.Runner { return experiments.All() }

// RunExperiment runs the experiment with the given ID ("E1".."E16").
func RunExperiment(id string, scale ExperimentScale, seed uint64) (*ExperimentResult, error) {
	r, ok := experiments.Get(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return r.Run(scale, seed)
}

type unknownExperimentError string

func (e unknownExperimentError) Error() string {
	return "repro: unknown experiment " + string(e)
}

func errUnknownExperiment(id string) error { return unknownExperimentError(id) }

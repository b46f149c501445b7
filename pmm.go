// Package pmm is a simulation library for Priority Memory Management
// (PMM), the adaptive admission-control and memory-allocation algorithm
// for firm real-time database systems introduced by Pang, Carey and
// Livny in "Managing Memory for Real-Time Queries" (SIGMOD 1994).
//
// The library contains a complete discrete-event simulator of the
// paper's centralized RTDBS — an Earliest-Deadline CPU, ED+elevator
// disks with prefetching caches, a reservation-based buffer pool with
// LRU replacement, memory-adaptive operators (partially preemptible
// hash joins and adaptive external sorts), Poisson workload classes with
// firm deadlines — plus the PMM controller itself and the static
// algorithms it is compared against (Max, MinMax-N, Proportional-N).
//
// # Quick start
//
//	cfg := pmm.BaselineConfig()
//	cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyPMM}
//	cfg.Classes[0].ArrivalRate = 0.06
//	res, err := pmm.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("miss ratio: %.1f%%\n", 100*res.MissRatio)
//
// Every run is fully deterministic for a fixed Config (including Seed).
package pmm

import (
	"io"

	"pmm/internal/catalog"
	"pmm/internal/core"
	"pmm/internal/disk"
	"pmm/internal/query"
	"pmm/internal/resultstore"
	"pmm/internal/rtdbs"
	"pmm/internal/runner"
	"pmm/internal/trace"
	"pmm/internal/workload"
)

// Core configuration and result types, aliased from the implementation
// packages so the whole API is reachable from this single import.
type (
	// Config fully describes one simulation run.
	Config = rtdbs.Config
	// PolicyConfig selects the memory-allocation algorithm.
	PolicyConfig = rtdbs.PolicyConfig
	// PolicyKind enumerates the allocation algorithms of Table 5.
	PolicyKind = rtdbs.PolicyKind
	// Phase is one segment of a time-varying workload.
	Phase = rtdbs.Phase
	// System is an assembled simulator instance.
	System = rtdbs.System
	// Results summarizes a finished run.
	Results = rtdbs.Results
	// ClassResult summarizes one workload class within Results.
	ClassResult = rtdbs.ClassResult
	// TermEvent is one query termination in Results.Events.
	TermEvent = rtdbs.TermEvent
	// GroupSpec describes a relation group of the database (§4.1).
	GroupSpec = catalog.GroupSpec
	// ClassSpec describes a workload class (§4.1), optionally scaled to
	// a count-batched client population with a time-varying rate.
	ClassSpec = workload.ClassSpec
	// Modulation shapes a class's time-varying aggregate arrival rate.
	Modulation = workload.Modulation
	// ModKind enumerates the rate-modulation shapes.
	ModKind = workload.ModKind
	// QueryType distinguishes hash joins from external sorts.
	QueryType = query.Type
	// DiskParams is the physical disk configuration (Table 3).
	DiskParams = disk.Params
	// PMMConfig carries the PMM parameters of Table 1.
	PMMConfig = core.Config
	// FairnessConfig parameterizes the class-fairness extension.
	FairnessConfig = core.FairnessConfig
	// PMMMode is the active allocation strategy (Max or MinMax).
	PMMMode = core.Mode
	// TracePoint is one PMM decision record (Figures 6 and 15).
	TracePoint = core.TracePoint
)

// Sweep-engine types, aliased from internal/runner: a declarative
// parameter sweep with replication and mean ± CI aggregation.
type (
	// SweepSpec declares a sweep: base config, axes, replication.
	SweepSpec = runner.Spec
	// Axis is one swept dimension of a SweepSpec.
	Axis = runner.Axis
	// AxisValue is one setting of an Axis (label + config mutation).
	AxisValue = runner.Value
	// Point is one node of a sweep grid.
	Point = runner.Point
	// PointResult pairs a Point with its replicates and aggregate.
	PointResult = runner.PointResult
	// Summary aggregates one point's replicates (mean ± CI per metric).
	Summary = runner.Summary
	// PairedSummary aggregates per-replicate policy-vs-policy deltas
	// under common random numbers (mean ± CI of the differences).
	PairedSummary = runner.PairedSummary
	// Stat is one aggregated metric within a Summary.
	Stat = runner.Stat
	// ClassStat is one per-class aggregate within a Summary.
	ClassStat = runner.ClassStat
	// StopRule drives adaptive (sequentially stopped) replication: set
	// SweepSpec.Stop and points run replicates in rounds until their
	// CIs meet the precision target instead of a fixed Reps.
	StopRule = runner.StopRule
	// StopMetric names a Summary statistic a StopRule targets.
	StopMetric = runner.Metric
	// PairedTarget selects two values of one axis whose points stop on
	// their paired-difference CI (common-random-number policy gaps).
	PairedTarget = runner.PairedTarget
	// SweepProgress streams live per-job sweep telemetry (set
	// SweepSpec.Progress) and accumulates a SweepTrace.
	SweepProgress = runner.Progress
	// SweepTrace is the structured execution telemetry of one sweep.
	SweepTrace = runner.SweepTrace
	// PointTrace is the per-point block of a SweepTrace.
	PointTrace = runner.PointTrace
)

// Simulation-trace types, aliased from internal/trace and
// internal/rtdbs: the deterministic observability layer.
type (
	// RunTrace is a complete run trace (one collector per shard); write
	// it out with WriteChrome (Perfetto) or WriteCSV.
	RunTrace = trace.Trace
	// TraceCollector accumulates the records of one kernel's run.
	TraceCollector = trace.Collector
	// TraceWindow bounds kernel-level event recording to [A, B).
	TraceWindow = rtdbs.TraceWindow
)

// Result-store types, aliased from internal/resultstore: the
// content-addressed on-disk cache of per-replicate simulation results.
type (
	// ResultStore caches per-replicate results keyed by (canonical
	// config, seed, simulation epoch); set SweepSpec.Cache to use it.
	ResultStore = resultstore.Store
	// ResultStoreStats is a snapshot of a store's counters.
	ResultStoreStats = resultstore.Stats
	// ResultKey is the content address of one simulation result.
	ResultKey = resultstore.Key
)

// Allocation policies (paper Table 5).
const (
	// PolicyMax always uses the Max strategy.
	PolicyMax = rtdbs.PolicyMax
	// PolicyMinMax is MinMax-N (PolicyConfig.MPLLimit 0 = plain MinMax).
	PolicyMinMax = rtdbs.PolicyMinMax
	// PolicyProportional is Proportional-N.
	PolicyProportional = rtdbs.PolicyProportional
	// PolicyPMM is the adaptive Priority Memory Management algorithm.
	PolicyPMM = rtdbs.PolicyPMM
	// PolicyFairPMM is PMM with the §5.6 class-fairness extension.
	PolicyFairPMM = rtdbs.PolicyFairPMM
)

// Query types.
const (
	// HashJoin queries join two relations with a PPHJ join.
	HashJoin = query.HashJoin
	// ExternalSort queries sort a single relation.
	ExternalSort = query.ExternalSort
)

// Arrival-rate modulation kinds (ClassSpec.Modulation.Kind).
const (
	// ModNone is a fixed (homogeneous Poisson) aggregate rate.
	ModNone = workload.ModNone
	// ModDiurnal is a sinusoidal rate sampled exactly by thinning.
	ModDiurnal = workload.ModDiurnal
)

// New assembles a simulator for cfg without running it.
func New(cfg Config) (*System, error) { return rtdbs.New(cfg) }

// Run assembles and runs a simulation to its configured horizon: the
// classic single-kernel system, or — when cfg.Tenants > 1 — the
// partitioned multi-tenant path, sharded across cfg.Shards workers with
// results independent of the worker count.
func Run(cfg Config) (*Results, error) {
	return rtdbs.Simulate(cfg, nil)
}

// RunTraced is Run with an attached simulation trace: the run is
// bit-for-bit identical (the trace layer observes, never perturbs) and
// the returned RunTrace holds kernel events (optionally bounded to win),
// query lifecycle spans, and resource timelines — one collector per cell
// for multi-tenant configs. Export with RunTrace.WriteChrome (Perfetto)
// or WriteCSV.
func RunTraced(cfg Config, win TraceWindow) (*Results, *RunTrace, error) {
	return rtdbs.SimulateTraced(cfg, nil, win)
}

// NewSweepProgress returns a SweepProgress streaming per-job completion
// lines (with a live ETA) to w; pass nil to collect the SweepTrace
// silently. Attach it as SweepSpec.Progress — it observes scheduling
// only and never changes sweep results.
func NewSweepProgress(w io.Writer) *SweepProgress { return runner.NewProgress(w) }

// Sweep expands spec's axes into a grid of configurations, runs every
// point × replicate on a bounded worker pool with deterministic
// per-replicate seeds, and returns per-point results with mean ± CI
// aggregates. The output depends only on the spec, never on the worker
// count or scheduling; a 1-replicate point reproduces Run bit for bit.
func Sweep(spec SweepSpec) ([]PointResult, error) { return runner.Run(spec) }

// RunMany executes reps replicates of one configuration (replicate 0 at
// cfg.Seed, the rest at seeds derived from it) across workers parallel
// simulations, returning the per-replicate results in order.
func RunMany(cfg Config, reps, workers int) ([]*Results, error) {
	return runner.RunMany(cfg, reps, workers)
}

// Aggregate summarizes replicate results into mean ± CI statistics at
// the given confidence level (0 defaults to 0.95).
func Aggregate(runs []*Results, confidence float64) Summary {
	return runner.Summarize(runs, confidence)
}

// AggregatePaired computes paired-difference statistics (a[r] − b[r]
// per replicate, mean ± CI) for two equal-length replicate sets that ran
// under common random numbers — typically the same sweep point under two
// policies. Because shared seeds cancel workload noise within each pair,
// the resulting interval on the policy gap is tighter than the two
// marginal intervals; see PairedSummary. Mismatched lengths panic.
func AggregatePaired(a, b []*Results, confidence float64) PairedSummary {
	return runner.AggregatePaired(a, b, confidence)
}

// SweepAxis builds an Axis from typed values, a label function, and a
// setter applied to each point's private copy of the configuration.
func SweepAxis[T any](name string, values []T, label func(T) string, apply func(*Config, T)) Axis {
	return runner.AxisOf(name, values, label, apply)
}

// FindPoint returns the first sweep point whose labels match every
// name, label pair, or nil when none does.
func FindPoint(points []PointResult, pairs ...string) *PointResult {
	return runner.Find(points, pairs...)
}

// ReplicateSeed derives the deterministic seed of replicate rep from a
// base seed (rep 0 returns the base seed unchanged).
func ReplicateSeed(base int64, rep int) int64 { return runner.ReplicateSeed(base, rep) }

// OpenResultStore opens (creating if needed) a content-addressed result
// store rooted at dir. Pass it as SweepSpec.Cache to make warm sweep
// reruns near-free: every (point, replicate) already stored is served
// from disk instead of simulated. Stores written under a different
// simulation epoch (see ConfigKey) are emptied on open.
func OpenResultStore(dir string) (*ResultStore, error) { return resultstore.Open(dir) }

// ConfigKey returns the content address (hex SHA-256) under which cfg's
// simulation result is cached: the hash of the canonical configuration
// — defaults applied, policy-irrelevant fields dropped — salted with
// the simulation epoch, so any change to simulator semantics
// invalidates stored results. Equal keys guarantee bit-identical runs.
func ConfigKey(cfg Config) string { return resultstore.KeyFor(cfg).String() }

// DefaultDiskParams returns the paper's Table 3 disk configuration.
func DefaultDiskParams() DiskParams { return disk.DefaultParams() }

// DefaultPMMConfig returns the paper's Table 1 PMM parameters.
func DefaultPMMConfig() PMMConfig { return core.DefaultConfig() }

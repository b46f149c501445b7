package runner

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pmm/internal/catalog"
	"pmm/internal/resultstore"
	"pmm/internal/rtdbs"
	"pmm/internal/sim"
	"pmm/internal/stats"
	"pmm/internal/workload"
)

// synthBase is a minimal valid config for synthetic-simulation specs.
func synthBase() rtdbs.Config {
	return rtdbs.Config{
		Seed:     1,
		Duration: 60,
		Groups:   []catalog.GroupSpec{{RelPerDisk: 1, SizeRange: [2]int{10, 10}}},
		Classes: []workload.ClassSpec{{
			Name: "C", RelGroups: []int{0, 0}, ArrivalRate: 0.1, SlackRange: [2]float64{2, 3},
		}},
	}
}

// synthSim fabricates results with controlled dynamics: the miss ratio
// is mean(policy) + sd·noise(seed), where the noise stream depends only
// on the seed — so two policies at the same replicate share it exactly,
// mimicking common random numbers with a deterministic policy gap.
func synthSim(mean func(rtdbs.PolicyKind) float64, sd float64, calls *atomic.Int64) func(rtdbs.Config, *sim.Arena) (*rtdbs.Results, error) {
	return func(cfg rtdbs.Config, _ *sim.Arena) (*rtdbs.Results, error) {
		if calls != nil {
			calls.Add(1)
		}
		noise := rand.New(rand.NewSource(cfg.Seed)).NormFloat64()
		return &rtdbs.Results{
			Policy:     cfg.PolicyName(),
			Duration:   cfg.Duration,
			Terminated: 100,
			MissRatio:  mean(cfg.Policy.Kind) + sd*noise,
		}, nil
	}
}

// relHW computes the realized relative half-width of a point's
// miss-ratio aggregate at 95% confidence.
func relHW(p PointResult) float64 {
	s := p.Agg.MissRatio
	return s.HalfWidth / math.Abs(s.Mean)
}

// TestAdaptiveHighVarianceConverges: a noisy metric must keep
// replicating past the first round until the target precision holds.
func TestAdaptiveHighVarianceConverges(t *testing.T) {
	spec := Spec{
		Base:     synthBase(),
		Workers:  4,
		Stop:     &StopRule{RelPrecision: 0.10, AbsFloor: 1e-9, MinReps: 3, MaxReps: 64},
		simulate: synthSim(func(rtdbs.PolicyKind) float64 { return 0.30 }, 0.05, nil),
	}
	points, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	if len(p.Reps) <= 3 {
		t.Fatalf("high-variance point stopped at the first round (%d reps)", len(p.Reps))
	}
	if len(p.Reps) > 64 {
		t.Fatalf("exceeded MaxReps: %d", len(p.Reps))
	}
	if rh := relHW(p); rh > 0.10 {
		t.Fatalf("stopped before reaching precision: rel half-width %.3f > 0.10 at %d reps", rh, len(p.Reps))
	}
}

// TestAdaptiveZeroVarianceStopsAtMinimum: a deterministic metric has a
// zero-width CI after the first round and must not replicate further.
func TestAdaptiveZeroVarianceStopsAtMinimum(t *testing.T) {
	spec := Spec{
		Base:     synthBase(),
		Workers:  4,
		Stop:     &StopRule{RelPrecision: 0.05, MinReps: 4, MaxReps: 64},
		simulate: synthSim(func(rtdbs.PolicyKind) float64 { return 0.25 }, 0, nil),
	}
	points, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(points[0].Reps); got != 4 {
		t.Fatalf("zero-variance point used %d reps, want the minimum round of 4", got)
	}
}

// policyAxisAB sweeps PMM vs MinMax for the paired tests.
func policyAxisAB() Axis {
	return AxisOf("policy",
		[]rtdbs.PolicyKind{rtdbs.PolicyPMM, rtdbs.PolicyMinMax},
		func(k rtdbs.PolicyKind) string {
			return (rtdbs.Config{Policy: rtdbs.PolicyConfig{Kind: k}}).PolicyName()
		},
		func(c *rtdbs.Config, k rtdbs.PolicyKind) { c.Policy.Kind = k })
}

// TestAdaptivePairedGapStops: with common random numbers the noise
// cancels in the paired difference, so the pair resolves (gap CI
// excludes zero) at the minimum round even though either margin alone
// is far too noisy to stop — exactly the variance reduction the paired
// rule exists for.
func TestAdaptivePairedGapStops(t *testing.T) {
	means := func(k rtdbs.PolicyKind) float64 {
		if k == rtdbs.PolicyPMM {
			return 0.30
		}
		return 0.25 // constant 5-point gap under shared noise
	}
	run := func(pair *PairedTarget) []PointResult {
		t.Helper()
		points, err := Run(Spec{
			Base:     synthBase(),
			Axes:     []Axis{policyAxisAB()},
			Workers:  4,
			Stop:     &StopRule{RelPrecision: 0.05, AbsFloor: 1e-9, MinReps: 3, MaxReps: 64, Pair: pair},
			simulate: synthSim(means, 0.2, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}

	paired := run(&PairedTarget{Axis: "policy", A: "PMM", B: "MinMax"})
	for _, p := range paired {
		if got := len(p.Reps); got != 3 {
			t.Fatalf("paired point %s used %d reps, want minimum round 3 (noise cancels in the gap)",
				p.Point.Key, got)
		}
	}
	// The resolved gap: the paired CI excludes zero.
	ps := AggregatePaired(paired[0].Reps, paired[1].Reps, 0.95)
	if math.Abs(ps.MissRatio.Mean) <= ps.MissRatio.HalfWidth {
		t.Fatalf("paired gap unresolved: %+v", ps.MissRatio)
	}

	// Control: the same grid under marginal stopping grinds to MaxReps —
	// sd 0.2 on a 0.3 mean needs far more than 64 reps for ±5%.
	marginal := run(nil)
	for _, p := range marginal {
		if got := len(p.Reps); got != 64 {
			t.Fatalf("marginal control for %s stopped at %d reps; expected to hit the 64 cap", p.Point.Key, got)
		}
	}
}

// TestAdaptiveDeterministic: adaptive sweeps remain a pure function of
// the spec — same replicate counts and aggregates on every run, at any
// worker count.
func TestAdaptiveDeterministic(t *testing.T) {
	spec := func(workers int) Spec {
		return Spec{
			Base:     synthBase(),
			Axes:     []Axis{policyAxisAB()},
			Workers:  workers,
			Stop:     &StopRule{RelPrecision: 0.10, MinReps: 3, MaxReps: 32},
			simulate: synthSim(func(rtdbs.PolicyKind) float64 { return 0.3 }, 0.04, nil),
		}
	}
	a, err := Run(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("adaptive sweep differs across worker counts")
	}
}

// TestSweepCacheWarmRerun: a second sweep against the same store must
// simulate nothing and reproduce the first sweep's results exactly.
func TestSweepCacheWarmRerun(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	spec := func() (Spec, *resultstore.Store) {
		store, err := resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return Spec{
			Base:     synthBase(),
			Axes:     []Axis{policyAxisAB()},
			Reps:     3,
			Workers:  4,
			Cache:    store,
			simulate: synthSim(func(rtdbs.PolicyKind) float64 { return 0.3 }, 0.05, &calls),
		}, store
	}

	cold, store := spec()
	a, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	if calls.Load() != 6 {
		t.Fatalf("cold run simulated %d times, want 6", calls.Load())
	}
	for _, p := range a {
		if p.CacheHits != 0 || p.CacheMisses != 3 {
			t.Fatalf("cold point %s: hits %d misses %d", p.Point.Key, p.CacheHits, p.CacheMisses)
		}
	}

	warm, store2 := spec()
	b, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	store2.Close()
	if calls.Load() != 6 {
		t.Fatalf("warm rerun simulated %d extra times, want 0", calls.Load()-6)
	}
	for _, p := range b {
		if p.CacheHits != 3 || p.CacheMisses != 0 {
			t.Fatalf("warm point %s: hits %d misses %d", p.Point.Key, p.CacheHits, p.CacheMisses)
		}
	}
	// Results must be interchangeable with simulation, hit counters aside.
	for i := range a {
		if !reflect.DeepEqual(a[i].Reps, b[i].Reps) || !reflect.DeepEqual(a[i].Agg, b[i].Agg) {
			t.Fatalf("warm results differ at point %s", a[i].Point.Key)
		}
	}
}

// TestStopRuleValidation: bad rules fail loudly, not silently.
func TestStopRuleValidation(t *testing.T) {
	_, err := Run(Spec{
		Base:     synthBase(),
		Stop:     &StopRule{}, // no RelPrecision
		simulate: synthSim(func(rtdbs.PolicyKind) float64 { return 0.3 }, 0, nil),
	})
	if err == nil {
		t.Fatal("zero RelPrecision accepted")
	}
	_, err = Run(Spec{
		Base:     synthBase(),
		Stop:     &StopRule{RelPrecision: 0.05, Metrics: []Metric{"nonsense"}},
		simulate: synthSim(func(rtdbs.PolicyKind) float64 { return 0.3 }, 0, nil),
	})
	if err == nil {
		t.Fatal("unknown metric accepted")
	}
}

// TestAdaptiveWelfordMatchesSummarize cross-checks the controller's
// incremental accumulators against the batch Summarize aggregation the
// reports use: same mean, same half-width.
func TestAdaptiveWelfordMatchesSummarize(t *testing.T) {
	spec := Spec{
		Base:     synthBase(),
		Workers:  2,
		Stop:     &StopRule{RelPrecision: 0.10, MinReps: 5, MaxReps: 32},
		simulate: synthSim(func(rtdbs.PolicyKind) float64 { return 0.3 }, 0.03, nil),
	}
	points, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	var w stats.Welford
	for _, r := range p.Reps {
		w.Add(r.MissRatio)
	}
	if math.Abs(w.Mean()-p.Agg.MissRatio.Mean) > 1e-12 {
		t.Fatalf("incremental mean %.15f != summarized %.15f", w.Mean(), p.Agg.MissRatio.Mean)
	}
	z := stats.NormalQuantile(1 - (1-0.95)/2)
	hw := z * w.SD() / math.Sqrt(float64(w.N()))
	if math.Abs(hw-p.Agg.MissRatio.HalfWidth) > 1e-12 {
		t.Fatalf("incremental half-width %.15f != summarized %.15f", hw, p.Agg.MissRatio.HalfWidth)
	}
}

// TestAdaptiveRepsSemantics pins the documented flag semantics: an
// explicit Spec.Reps sets the first round exactly, and MaxReps is a
// hard cap that clamps it rather than being silently raised.
func TestAdaptiveRepsSemantics(t *testing.T) {
	// Zero variance, so every run stops at its first round.
	flat := synthSim(func(rtdbs.PolicyKind) float64 { return 0.25 }, 0, nil)
	run := func(reps int, rule StopRule) int {
		t.Helper()
		points, err := Run(Spec{Base: synthBase(), Reps: reps, Stop: &rule, simulate: flat})
		if err != nil {
			t.Fatal(err)
		}
		return len(points[0].Reps)
	}
	if got := run(2, StopRule{RelPrecision: 0.05}); got != 2 {
		t.Fatalf("Reps 2 should set the first round to 2, got %d", got)
	}
	if got := run(16, StopRule{RelPrecision: 0.05, MaxReps: 8}); got != 8 {
		t.Fatalf("Reps 16 must be clamped by the MaxReps 8 cap, got %d", got)
	}
	if got := run(0, StopRule{RelPrecision: 0.05, MinReps: 6, MaxReps: 4}); got != 4 {
		t.Fatalf("MinReps 6 must be clamped by the MaxReps 4 cap, got %d", got)
	}
}

// TestSweepSurvivesBrokenStore: a store that cannot accept writes must
// not abort the sweep — simulation results flow through and the store
// counts the failures.
func TestSweepSurvivesBrokenStore(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Replace the objects tree with a regular file so every Put fails
	// with ENOTDIR (robust even when tests run as root, unlike a
	// permissions-based injection).
	if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "objects"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	points, err := Run(Spec{
		Base:     synthBase(),
		Reps:     3,
		Cache:    store,
		simulate: synthSim(func(rtdbs.PolicyKind) float64 { return 0.3 }, 0.05, nil),
	})
	if err != nil {
		t.Fatalf("sweep failed on store write errors: %v", err)
	}
	if len(points[0].Reps) != 3 || points[0].Reps[0] == nil {
		t.Fatalf("results lost: %+v", points[0])
	}
	if st := store.Stats(); st.PutErrors != 3 || st.Puts != 0 {
		t.Fatalf("put failures not counted: %+v", st)
	}
}

// TestSweepRejectsNegativeConfigOnWarmStore: a config with a negative
// defaulted field canonicalizes onto its default's store key, so a warm
// store would serve it as if it were valid. The sweep must reject it
// before consulting the store — one row per field.
func TestSweepRejectsNegativeConfigOnWarmStore(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	base := synthBase()
	base.Duration = 0 // the default, so a negative duration shares its key
	var calls atomic.Int64
	spec := func(cfg rtdbs.Config) Spec {
		return Spec{
			Base:     cfg,
			Reps:     1,
			Workers:  1,
			Cache:    store,
			simulate: synthSim(func(rtdbs.PolicyKind) float64 { return 0.3 }, 0, &calls),
		}
	}
	if _, err := Run(spec(base)); err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		field string
		set   func(*rtdbs.Config)
	}{
		{"Duration", func(c *rtdbs.Config) { c.Duration = -3600 }},
		{"CPUMips", func(c *rtdbs.Config) { c.CPUMips = -40 }},
		{"MemoryPages", func(c *rtdbs.Config) { c.MemoryPages = -1 }},
		{"FudgeFactor", func(c *rtdbs.Config) { c.FudgeFactor = -1.1 }},
		{"TuplesPerPage", func(c *rtdbs.Config) { c.TuplesPerPage = -40 }},
		{"Disk.NumDisks", func(c *rtdbs.Config) { c.Disk.NumDisks = -10 }},
		{"Disk.SeekFactorMS", func(c *rtdbs.Config) { c.Disk.SeekFactorMS = -0.617 }},
		{"Disk.RotationTime", func(c *rtdbs.Config) { c.Disk.RotationTime = -0.0167 }},
		{"Disk.NumCylinders", func(c *rtdbs.Config) { c.Disk.NumCylinders = -1500 }},
		{"Disk.CylinderSize", func(c *rtdbs.Config) { c.Disk.CylinderSize = -90 }},
		{"Disk.PagesPerTrack", func(c *rtdbs.Config) { c.Disk.PagesPerTrack = -4 }},
		{"Disk.BlockSize", func(c *rtdbs.Config) { c.Disk.BlockSize = -6 }},
	}
	for _, row := range rows {
		cfg := cloneConfig(base)
		row.set(&cfg)
		if _, err := Run(spec(cfg)); err == nil {
			t.Errorf("%s < 0: sweep accepted the config", row.field)
		} else if !strings.Contains(err.Error(), row.field) {
			t.Errorf("%s < 0: error %q does not name the field", row.field, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("simulated %d times, want 1 (the warm-up run only)", n)
	}
}

package pmm_test

import (
	"runtime"
	"testing"

	"pmm"
)

// allPresets enumerates every preset constructor, including ScaledConfig
// over several scale factors.
func allPresets() map[string]pmm.Config {
	return map[string]pmm.Config{
		"baseline":   pmm.BaselineConfig(),
		"contention": pmm.DiskContentionConfig(),
		"changes":    pmm.WorkloadChangeConfig(),
		"sorts":      pmm.ExternalSortConfig(),
		"multiclass": pmm.MulticlassConfig(0.4),
		"scaled-0.5": pmm.ScaledConfig(0.5),
		"scaled-1":   pmm.ScaledConfig(1),
		"scaled-2":   pmm.ScaledConfig(2),
		"scaled-4":   pmm.ScaledConfig(4),
		// Count-batched client populations: the default 100k and the
		// full million — same aggregate load, so both run at preset cost.
		"overload":    pmm.OverloadConfig(0),
		"overload-1m": pmm.OverloadConfig(1_000_000),
	}
}

// TestEveryPresetAssembles builds a simulator from each preset without
// running it.
func TestEveryPresetAssembles(t *testing.T) {
	for name, cfg := range allPresets() {
		cfg.Duration = 1
		if _, err := pmm.New(cfg); err != nil {
			t.Errorf("preset %s does not assemble: %v", name, err)
		}
	}
}

// TestEveryPresetRunsDeterministically runs each preset for a tiny
// horizon twice at the same seed and demands identical results, and for
// good measure checks that queries actually flow through the system.
func TestEveryPresetRunsDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	for name, cfg := range allPresets() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg.Seed = 7
			cfg.Duration = 600
			a, err := pmm.Run(cfg)
			if err != nil {
				t.Fatalf("preset %s failed: %v", name, err)
			}
			b, err := pmm.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Arrived == 0 {
				t.Errorf("preset %s: no queries arrived in %g s", name, cfg.Duration)
			}
			if a.Arrived != b.Arrived || a.Terminated != b.Terminated ||
				a.Missed != b.Missed || a.MissRatio != b.MissRatio ||
				a.AvgMPL != b.AvgMPL || a.AvgDiskUtil != b.AvgDiskUtil {
				t.Errorf("preset %s is nondeterministic: %+v vs %+v", name, a, b)
			}
		})
	}
}

// TestOverloadHeapBytesPerQuery gates the allocation-free query
// lifecycle: a simulated hour of the overload preset — tens of
// thousands of short queries — may allocate at most 512 heap bytes per
// terminated query, set-up included. What remains is the growth of the
// per-termination result log and the task registry, process names and
// spool temp files; the other per-query records are recycled.
func TestOverloadHeapBytesPerQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	for _, kind := range []pmm.PolicyKind{pmm.PolicyMinMax, pmm.PolicyPMM} {
		cfg := pmm.OverloadConfig(0)
		cfg.Duration = 3600
		cfg.Policy = pmm.PolicyConfig{Kind: kind}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, err := pmm.Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perQuery := float64(after.TotalAlloc-before.TotalAlloc) / float64(r.Terminated)
		t.Logf("%s: %d terminated, %.0f heap bytes per query", r.Policy, r.Terminated, perQuery)
		if perQuery > 512 {
			t.Errorf("%s: %.0f heap bytes per terminated query, want at most 512", r.Policy, perQuery)
		}
	}
}

// TestSweepPublicAPI exercises the pmm-level sweep surface end to end:
// a 2-axis replicated sweep with deterministic aggregate output across
// worker counts.
func TestSweepPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	base := pmm.BaselineConfig()
	base.Seed = 3
	base.Duration = 300
	spec := pmm.SweepSpec{
		Base: base,
		Axes: []pmm.Axis{
			pmm.SweepAxis("rate", []float64{0.05, 0.07},
				func(r float64) string { return "r" },
				func(c *pmm.Config, r float64) { c.Classes[0].ArrivalRate = r }),
		},
		Reps: 2,
	}
	points, err := pmm.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Agg.Reps != 2 || len(p.Reps) != 2 {
			t.Fatalf("point %s not replicated: %+v", p.Point.Key, p.Agg)
		}
	}
	// Aggregate over the replicates matches pmm.Aggregate applied by hand.
	manual := pmm.Aggregate(points[0].Reps, 0.95)
	if manual.MissRatio != points[0].Agg.MissRatio || manual.AvgMPL != points[0].Agg.AvgMPL {
		t.Fatalf("Aggregate mismatch: %+v vs %+v", manual.MissRatio, points[0].Agg.MissRatio)
	}
}

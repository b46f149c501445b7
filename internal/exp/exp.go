// Package exp defines the reproduction experiments: one driver per
// figure and table of the paper's evaluation (§5), mapped in DESIGN.md's
// per-experiment index. Each driver is a declarative description of a
// parameter sweep — a preset base configuration plus axes (policy,
// arrival rate, scale, …) — executed by the pmm.Sweep engine, which
// runs every point × replicate in parallel with deterministic seeds and
// aggregates replicates into mean ± CI. Drivers then render plain-text
// tables whose rows correspond to the points of the original figures;
// with Options.Reps > 1 the cells carry confidence half-widths.
package exp

import (
	"fmt"
	"strings"

	"pmm"
)

// Options controls experiment scale.
type Options struct {
	// Seed drives all random streams; replicate r of every simulation
	// runs at pmm.ReplicateSeed(Seed, r).
	Seed int64
	// Quick shrinks horizons and grids for smoke runs and benchmarks.
	Quick bool
	// Horizon, when positive, overrides the simulated duration of every
	// run (tests use very small values).
	Horizon float64
	// Reps is the number of replicates per sweep point (default 1).
	// With more than one, tables report mean ± CI cells. With Precision
	// set it becomes the adaptive controller's first-round size.
	Reps int
	// Workers bounds concurrent simulations (default GOMAXPROCS). It
	// never affects results, only wall-clock time.
	Workers int
	// Store, when non-nil, caches per-replicate results so warm reruns
	// of a figure skip simulation entirely.
	Store *pmm.ResultStore
	// Precision, when positive, switches every sweep to adaptive
	// replication: points replicate until the miss-ratio CI half-width
	// is within Precision of the mean (figures with a headline policy
	// pair stop that pair on the paired-gap CI instead).
	Precision float64
	// MaxReps caps adaptive replicates per point (default 32).
	MaxReps int
	// Tenants, when > 1, adds the multi-tenant partitioned-execution
	// report: that many broker-coupled baseline cells per run.
	Tenants int
	// Clients is the simulated client population of the open-system
	// overload report (default 100 000). Population is count-batched, so
	// any value — including 10⁶ — costs one kernel timer per class.
	Clients int
	// Shards is the worker-thread count for partitioned runs. Purely an
	// execution knob — reported results are identical for every value.
	Shards int
	// Progress, when non-nil, receives live per-job telemetry from every
	// sweep (all figures share its ETA denominator and its accumulated
	// SweepTrace). Pure observability — results are unchanged.
	Progress *pmm.SweepProgress
}

// horizon returns the simulated duration to use.
func (o Options) horizon(full float64) float64 {
	if o.Horizon > 0 {
		return o.Horizon
	}
	if o.Quick {
		return full / 6
	}
	return full
}

// sweep executes base (seeded from the options) across the axes on the
// shared replicated-sweep engine.
func (o Options) sweep(base pmm.Config, axes ...pmm.Axis) ([]pmm.PointResult, error) {
	return o.sweepPaired(base, nil, axes...)
}

// sweepPaired is sweep with a designated policy pair: under adaptive
// replication (Precision > 0) the paired points stop on their
// paired-difference CI — the figure's headline comparison — while the
// rest of the grid stops on marginal precision.
func (o Options) sweepPaired(base pmm.Config, pair *pmm.PairedTarget, axes ...pmm.Axis) ([]pmm.PointResult, error) {
	base.Seed = o.Seed
	spec := pmm.SweepSpec{
		Base:     base,
		Axes:     axes,
		Reps:     o.Reps,
		Workers:  o.Workers,
		Cache:    o.Store,
		Progress: o.Progress,
	}
	if o.Precision > 0 {
		spec.Stop = &pmm.StopRule{
			RelPrecision: o.Precision,
			MaxReps:      o.MaxReps,
			Pair:         pair,
		}
	}
	return pmm.Sweep(spec)
}

// SweepInfo is the cache and stopping telemetry of one sweep, attached
// to every report rendered from it (and surfaced in -json documents).
type SweepInfo struct {
	// CacheHits/CacheMisses count replicates served from / missed in
	// the result store, summed over the sweep's points.
	CacheHits   int `json:"cacheHits"`
	CacheMisses int `json:"cacheMisses"`
	// StorePath is the result store directory.
	StorePath string `json:"storePath,omitempty"`
	// Precision and MaxReps echo the adaptive-stopping knobs.
	Precision float64 `json:"precision,omitempty"`
	MaxReps   int     `json:"maxReps,omitempty"`
	// RepsMin/RepsMax/RepsTotal summarize replicates actually used per
	// point under adaptive stopping.
	RepsMin   int `json:"repsMin,omitempty"`
	RepsMax   int `json:"repsMax,omitempty"`
	RepsTotal int `json:"repsTotal,omitempty"`
}

// annotate attaches cache and adaptive-stopping telemetry from a
// sweep's points to the reports rendered from it: a structured
// SweepInfo on each report plus human-readable footer notes.
func (o Options) annotate(reports []*Report, points []pmm.PointResult) {
	if o.Store == nil && o.Precision <= 0 {
		return
	}
	info := &SweepInfo{}
	info.RepsMin = -1
	for _, p := range points {
		info.CacheHits += p.CacheHits
		info.CacheMisses += p.CacheMisses
		n := len(p.Reps)
		info.RepsTotal += n
		if info.RepsMin < 0 || n < info.RepsMin {
			info.RepsMin = n
		}
		if n > info.RepsMax {
			info.RepsMax = n
		}
	}
	if info.RepsMin < 0 {
		info.RepsMin = 0
	}
	var notes []string
	if o.Store != nil {
		info.StorePath = o.Store.Path()
		notes = append(notes, fmt.Sprintf("result store %s: %d replicates from cache, %d simulated",
			info.StorePath, info.CacheHits, info.CacheMisses))
	}
	if o.Precision > 0 {
		info.Precision = o.Precision
		info.MaxReps = o.MaxReps
		if info.MaxReps <= 0 {
			info.MaxReps = 32
		}
		notes = append(notes, fmt.Sprintf("adaptive replication: %d–%d reps/point (%d total) at %.0f%% relative precision, cap %d",
			info.RepsMin, info.RepsMax, info.RepsTotal, 100*o.Precision, info.MaxReps))
	}
	for _, rep := range reports {
		rep.Sweep = info
		rep.Notes = append(rep.Notes, notes...)
	}
}

// gLabel renders a float axis value as its %g label. Axis construction
// and FindPoint lookups must share this helper, or lookups return nil.
func gLabel(x float64) string { return fmt.Sprintf("%g", x) }

// rateAxis sweeps the first class's arrival rate.
func rateAxis(rates []float64) pmm.Axis {
	return pmm.SweepAxis("rate", rates, gLabel,
		func(c *pmm.Config, r float64) { c.Classes[0].ArrivalRate = r })
}

// policyLabel renders a policy as an axis label (its display name).
func policyLabel(pol pmm.PolicyConfig) string {
	return (pmm.Config{Policy: pol}).PolicyName()
}

// policyAxis sweeps the allocation policy.
func policyAxis(pols []pmm.PolicyConfig) pmm.Axis {
	return pmm.SweepAxis("policy", pols, policyLabel,
		func(c *pmm.Config, p pmm.PolicyConfig) { c.Policy = p })
}

// Report is one rendered table, corresponding to one figure or table.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Sweep carries cache/stopping telemetry when the sweep ran with a
	// result store or adaptive replication (nil otherwise).
	Sweep *SweepInfo
}

// Doc is a report in machine-readable form: every row becomes an object
// keyed by column header, mirroring rtdbsim's -json aggregates so sweep
// tooling can consume figure tables without screen-scraping.
type Doc struct {
	ID      string              `json:"id"`
	Title   string              `json:"title"`
	Columns []string            `json:"columns"`
	Rows    []map[string]string `json:"rows"`
	Notes   []string            `json:"notes,omitempty"`
	// Sweep carries cache hit/miss counts and replicates-used telemetry
	// when the sweep ran with a result store or adaptive replication.
	Sweep *SweepInfo `json:"sweep,omitempty"`
}

// Doc converts the report. Cells beyond the header are dropped; missing
// trailing cells are omitted from that row's object.
func (r *Report) Doc() Doc {
	d := Doc{ID: r.ID, Title: r.Title, Columns: r.Header, Notes: r.Notes, Sweep: r.Sweep}
	for _, row := range r.Rows {
		obj := make(map[string]string, len(r.Header))
		for i, c := range row {
			if i < len(r.Header) {
				obj[r.Header[i]] = c
			}
		}
		d.Rows = append(d.Rows, obj)
	}
	return d
}

// Render formats the report as an aligned text table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// pct renders a ratio as a percentage with one decimal.
func pct(x float64) string { return fmt.Sprintf("%.1f", 100*x) }

// f1 renders a float with one decimal.
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }

// f2 renders a float with two decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// Cell formatters: single-replicate stats render exactly like the bare
// value (so reps=1 tables are byte-identical to unreplicated runs);
// replicated stats append the confidence half-width.

// cellPct renders a ratio stat as a percentage.
func cellPct(s pmm.Stat) string {
	if s.N > 1 {
		return fmt.Sprintf("%.1f±%.1f", 100*s.Mean, 100*s.HalfWidth)
	}
	return pct(s.Mean)
}

// cellF1 renders a stat with one decimal.
func cellF1(s pmm.Stat) string {
	if s.N > 1 {
		return fmt.Sprintf("%.1f±%.1f", s.Mean, s.HalfWidth)
	}
	return f1(s.Mean)
}

// cellF2 renders a stat with two decimals.
func cellF2(s pmm.Stat) string {
	if s.N > 1 {
		return fmt.Sprintf("%.2f±%.2f", s.Mean, s.HalfWidth)
	}
	return f2(s.Mean)
}

// cellCount renders an integer-valued stat (e.g. terminated queries).
func cellCount(s pmm.Stat) string {
	if s.N > 1 {
		return fmt.Sprintf("%.0f±%.0f", s.Mean, s.HalfWidth)
	}
	return fmt.Sprintf("%.0f", s.Mean)
}

// cellDeltaPct renders a paired-difference ratio stat as a signed
// percentage delta; replicated runs append the confidence half-width, so
// a policy gap whose interval excludes zero is a statistically
// resolvable claim rather than an eyeballed one.
func cellDeltaPct(s pmm.Stat) string {
	if s.N > 1 {
		return fmt.Sprintf("%+.1f±%.1f", 100*s.Mean, 100*s.HalfWidth)
	}
	return fmt.Sprintf("%+.1f", 100*s.Mean)
}

// missDelta pairs two sweep points run under common random numbers
// (replicate r of both shares a seed) and returns the miss-ratio stat of
// the per-replicate differences a − b. The shared seeds cancel the
// workload noise within each pair, so the interval is far tighter than
// the two marginal intervals in the neighbouring columns. Under
// adaptive replication the two points may hold different replicate
// counts (only the sweep's designated pair advances in lockstep);
// pairing then uses the common prefix, which still matches seeds.
func missDelta(a, b *pmm.PointResult) pmm.Stat {
	n := len(a.Reps)
	if len(b.Reps) < n {
		n = len(b.Reps)
	}
	return pmm.AggregatePaired(a.Reps[:n], b.Reps[:n], 0).MissRatio
}

// deltaColumn appends a paired-difference miss-ratio column to a
// by-row-key metric report: for each row key, delta(key) must return the
// two points to pair (minuend, subtrahend).
func deltaColumn[K any](rep *Report, label string, keys []K, delta func(K) (a, b *pmm.PointResult)) {
	rep.Header = append(rep.Header, label)
	for i, key := range keys {
		a, b := delta(key)
		rep.Rows[i] = append(rep.Rows[i], cellDeltaPct(missDelta(a, b)))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%s: paired per-replicate miss-ratio difference under common random numbers; an interval excluding zero resolves the gap", label))
}

// All runs every experiment and returns the reports in paper order.
func All(o Options) ([]*Report, error) {
	var out []*Report
	steps := []func(Options) ([]*Report, error){
		Baseline,
		PMMTraceBaseline,
		DiskContention,
		MinMaxNSweep,
		WorkloadChanges,
		UtilLowSensitivity,
		ExternalSorts,
		Multiclass,
		Scalability,
		Overload,
		MultiTenant,
	}
	for _, step := range steps {
		reports, err := step(o)
		if err != nil {
			return nil, err
		}
		out = append(out, reports...)
	}
	return out, nil
}

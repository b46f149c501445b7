package main

import (
	"fmt"
	"runtime"
	"time"

	"pmm"
	"pmm/internal/resultstore"
)

// minBatches is the fewest batches a timed run makes, however short
// --seconds is, so every median has several samples.
const minBatches = 3

// setupRounds is how many times each batch's systems are built: once
// for the run and the rest only to time pmm.New, so set-up has enough
// samples for a steady median.
const setupRounds = 5

// warmRepeats is how often each batch is answered again from the store.
const warmRepeats = 5

// sliceSim is the simulated length of one Kernel.Run slice of a traced
// simulation, in seconds.
const sliceSim = 600

// probeWindow bounds the kernel-event recording of the trace-overhead
// probe to the first simulated minute, so the probe's memory stays
// small; spans, instants and timelines are recorded for the whole run.
var probeWindow = pmm.TraceWindow{A: 0, B: 60}

// singleWorkload is one configuration under several policies, run one
// after another on one goroutine: fig3 and overload.
type singleWorkload struct {
	name     string
	base     func() pmm.Config
	policies []pmm.PolicyConfig
}

// fig3 is the §5.1 baseline point at λ = 0.06 over 2 simulated hours.
var fig3 = singleWorkload{
	name: "fig3",
	base: func() pmm.Config {
		c := pmm.BaselineConfig()
		c.Classes[0].ArrivalRate = 0.06
		c.Duration = 7200
		return c
	},
	policies: []pmm.PolicyConfig{
		{Kind: pmm.PolicyMax}, {Kind: pmm.PolicyMinMax},
		{Kind: pmm.PolicyProportional}, {Kind: pmm.PolicyPMM},
	},
}

// overload is the open-system preset: 100 000 diurnal clients behind a
// 16-slot admission queue, over its own 4 simulated hours.
var overload = singleWorkload{
	name:     "overload",
	base:     func() pmm.Config { return pmm.OverloadConfig(100_000) },
	policies: []pmm.PolicyConfig{{Kind: pmm.PolicyMinMax}, {Kind: pmm.PolicyPMM}},
}

// configs returns the batch of configurations at one seed.
func (w singleWorkload) configs(seed int64) []pmm.Config {
	out := make([]pmm.Config, len(w.policies))
	for i, p := range w.policies {
		c := w.base()
		c.Seed = seed
		c.Policy = p
		out[i] = c
	}
	return out
}

// memDelta is Go runtime activity over a measured interval.
type memDelta struct {
	alloc, mallocs, gcs, pauseNs uint64
}

func memBetween(a, b *runtime.MemStats) memDelta {
	return memDelta{
		alloc:   b.TotalAlloc - a.TotalAlloc,
		mallocs: b.Mallocs - a.Mallocs,
		gcs:     uint64(b.NumGC - a.NumGC),
		pauseNs: b.PauseTotalNs - a.PauseTotalNs,
	}
}

func (a memDelta) plus(b memDelta) memDelta {
	return memDelta{a.alloc + b.alloc, a.mallocs + b.mallocs, a.gcs + b.gcs, a.pauseNs + b.pauseNs}
}

func (a memDelta) minus(b memDelta) memDelta {
	return memDelta{a.alloc - b.alloc, a.mallocs - b.mallocs, a.gcs - b.gcs, a.pauseNs - b.pauseNs}
}

// batch is one untraced pass over a batch of configurations.
type batch struct {
	cfgs    []pmm.Config
	results []*pmm.Results
	steps   []uint64        // kernel events per simulation
	jobs    []time.Duration // pmm.New + System.Run per simulation
	setup   time.Duration   // Σ pmm.New
	run     time.Duration   // Σ System.Run
	wall    time.Duration
	mem     memDelta
}

// runBatch builds each system with pmm.New and runs it with System.Run.
func runBatch(cfgs []pmm.Config) (*batch, error) {
	b := &batch{cfgs: cfgs}
	// Every batch starts from a collected heap, so the garbage of the
	// batches before it is not charged to it.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, cfg := range cfgs {
		ts := time.Now()
		sys, err := pmm.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", cfg.PolicyName(), cfg.Seed, err)
		}
		tr := time.Now()
		res := sys.Run()
		te := time.Now()
		b.setup += tr.Sub(ts)
		b.run += te.Sub(tr)
		b.jobs = append(b.jobs, te.Sub(ts))
		b.results = append(b.results, res)
		b.steps = append(b.steps, sys.Kernel().Steps())
	}
	b.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	b.mem = memBetween(&m0, &m1)
	return b, nil
}

// setupOnly times building a batch's systems without running them.
func setupOnly(cfgs []pmm.Config) (time.Duration, error) {
	var d time.Duration
	for _, cfg := range cfgs {
		t := time.Now()
		_, err := pmm.New(cfg)
		d += time.Since(t)
		if err != nil {
			return 0, fmt.Errorf("%s seed %d: %w", cfg.PolicyName(), cfg.Seed, err)
		}
	}
	return d, nil
}

// simHours is the simulated time a batch advanced, in hours.
func simHours(rs []*pmm.Results) float64 {
	var s float64
	for _, r := range rs {
		s += r.Duration
	}
	return s / 3600
}

// checkAll applies the Results invariants to every simulation.
func checkAll(o *outcome, what string, rs []*pmm.Results) {
	for _, r := range rs {
		if bad := checkResults(r); len(bad) > 0 {
			o.fail(1, "%s %s: %v", what, r.Policy, bad)
		}
	}
}

// sameResults fails every simulation of a batch when two passes over
// it disagree.
func sameResults(o *outcome, what string, a, b []*pmm.Results) {
	da, err := digestOf(a)
	if err != nil {
		o.fail(len(a), "%s: %v", what, err)
		return
	}
	db, err := digestOf(b)
	if err != nil {
		o.fail(len(a), "%s: %v", what, err)
		return
	}
	if da != db {
		o.fail(len(a), "%s: digest %s != %s", what, da[:16], db[:16])
	}
}

// fill stores a cold batch's results under their content keys.
func fill(o *outcome, store *pmm.ResultStore, cfgs []pmm.Config, rs []*pmm.Results) {
	for i, cfg := range cfgs {
		if err := store.Put(resultstore.KeyFor(cfg), rs[i]); err != nil {
			o.fail(1, "store put %s: %v", rs[i].Policy, err)
		}
	}
}

// warm answers the batch again through the sweep engine with the store
// as its cache, as `rtdbsim -cache` does, and checks that the answer
// equals the cold one and came entirely from the store.
func (w singleWorkload) warm(o *outcome, store *pmm.ResultStore, b *batch) (time.Duration, error) {
	spec := pmm.SweepSpec{
		Base: b.cfgs[0],
		Axes: []pmm.Axis{pmm.SweepAxis("policy", w.policies, policyName,
			func(c *pmm.Config, p pmm.PolicyConfig) { c.Policy = p })},
		Cache: store,
	}
	before := store.Stats()
	t := time.Now()
	points, err := pmm.Sweep(spec)
	d := time.Since(t)
	if err != nil {
		return 0, fmt.Errorf("warm pass: %w", err)
	}
	after := store.Stats()
	got := make([]*pmm.Results, len(points))
	for i := range points {
		got[i] = points[i].First()
	}
	sameResults(o, "warm vs cold", b.results, got)
	if after.Misses != before.Misses || after.PutErrors != before.PutErrors {
		o.fail(len(points), "warm pass: %d store misses, %d put errors",
			after.Misses-before.Misses, after.PutErrors-before.PutErrors)
	}
	return d, nil
}

func policyName(p pmm.PolicyConfig) string { return (pmm.Config{Policy: p}).PolicyName() }

// measure is the untraced timed run: whole batches at successive seeds
// until the run's time is up. The host's speed drifts over seconds, so
// wall_s and sim_h_per_s are totals over every batch of the run (a mean
// batch wall and a rate), which follow the drift smoothly where a median
// of a few batches would jump between fast and slow stretches. Set-up,
// warm and allocation figures are medians over many samples.
// peak_rss_mb is the process's peak after the first batch (at the run's
// seed) and its warm passes: a few seeds build a large backlog and
// allocate three times as much, so a peak over however many batches fit
// in the run would mostly count whether one of those seeds came up.
func (w singleWorkload) measure(env *runEnv, o *outcome) error {
	store, err := pmm.OpenResultStore(env.freshDir("warm-store"))
	if err != nil {
		return err
	}
	defer store.Close()
	var walls, setups, allocs, warms []float64
	var simH, peakRSS float64
	start := time.Now()
	for i := 0; ; i++ {
		cfgs := w.configs(pmm.ReplicateSeed(env.seed, i))
		o.attempted += len(cfgs)
		b, err := runBatch(cfgs)
		if err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		checkAll(o, fmt.Sprintf("batch %d", i), b.results)
		if i == 0 {
			if err := printSimStats(env, b.results, b.steps); err != nil {
				return err
			}
		}
		var steps uint64
		for _, st := range b.steps {
			steps += st
		}
		fmt.Fprintf(env.stdout, "batch %d seed %d wall %.4f s events %d ns/event %.1f alloc %.2f MB peak_rss %.2f MB\n",
			i, cfgs[0].Seed, b.wall.Seconds(), steps, float64(b.run.Nanoseconds())/float64(steps), float64(b.mem.alloc)/1e6, peakRSSMB())
		walls = append(walls, b.wall.Seconds())
		setups = append(setups, b.setup.Seconds())
		for r := 1; r < setupRounds; r++ {
			d, err := setupOnly(cfgs)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		simH += simHours(b.results)
		allocs = append(allocs, float64(b.mem.alloc)/1e6)
		fill(o, store, cfgs, b.results)
		for r := 0; r < warmRepeats; r++ {
			d, err := w.warm(o, store, b)
			if err != nil {
				return fmt.Errorf("batch %d: %w", i, err)
			}
			warms = append(warms, d.Seconds())
		}
		if i == 0 {
			peakRSS = peakRSSMB()
		}
		if i+1 >= minBatches && time.Since(start) >= env.seconds {
			break
		}
	}
	fmt.Fprintf(env.stdout, "batches %d (%d simulations each), warm passes %d\n",
		len(walls), len(w.policies), len(warms))
	printSpread(env, "wall_s", walls)
	printSpread(env, "warm_s", warms)
	total := sum(walls)
	o.set("wall_s", total/float64(len(walls)))
	o.set("setup_s", median(setups))
	o.set("sim_h_per_s", simH/total)
	o.set("warm_s", median(warms))
	o.set("alloc_mb", median(allocs))
	o.set("peak_rss_mb", peakRSS)
	return nil
}

// printSimStats prints the simulated statistics and sim_digest of the
// batch at the run's seed.
func printSimStats(env *runEnv, rs []*pmm.Results, steps []uint64) error {
	d, err := digestOf(rs)
	if err != nil {
		return err
	}
	for i, r := range rs {
		io := r.IOBreakdown
		fmt.Fprintf(env.stdout, "sim %-13s terminated %6d missed %6d miss %.4f rejected %5d events %9d pages %9d lru_hits %8d pmm_batches %4d\n",
			r.Policy, r.Terminated, r.Missed, r.MissRatio, r.Rejected, steps[i],
			io.RelRead+io.SpoolWrite+io.SpoolRead, r.LRUHits, len(r.PMMTrace))
	}
	fmt.Fprintf(env.stdout, "sim_digest %s (seed %d, %d simulations)\n", d, env.seed, len(rs))
	return nil
}

// traced is the --trace 1 run: an untraced batch for the host-time
// baseline, a one-shot pmm.Run batch, the traced sliced batch, and a
// pmm.RunTraced probe, all at the run's seed; it reports the per-layer
// metrics.
func (w singleWorkload) traced(env *runEnv, o *outcome) error {
	cfgs := w.configs(env.seed)

	// Untraced baseline batch, answered again warm from a store.
	o.attempted += len(cfgs)
	b, err := runBatch(cfgs)
	if err != nil {
		o.fail(len(cfgs), "untraced batch: %v", err)
		return err
	}
	checkAll(o, "untraced", b.results)
	if err := printSimStats(env, b.results, b.steps); err != nil {
		return err
	}
	storeDir := env.freshDir("warm-store")
	store, err := pmm.OpenResultStore(storeDir)
	if err != nil {
		return err
	}
	fill(o, store, cfgs, b.results)
	var hitMs []float64
	warmJobs := 0
	for r := 0; r < warmRepeats; r++ {
		d, err := w.warm(o, store, b)
		if err != nil {
			store.Close()
			return err
		}
		hitMs = append(hitMs, d.Seconds()*1e3/float64(len(cfgs)))
		warmJobs += len(cfgs)
	}
	st := store.Stats()
	if err := store.Close(); err != nil {
		return err
	}
	keys := make([]resultstore.Key, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = resultstore.KeyFor(cfg)
	}
	if _, err := storeLayer(env, o, storeDir, keys, st); err != nil {
		return err
	}

	// One-shot pmm.Run: the reference the sliced run must reproduce.
	o.attempted += 2*len(cfgs) + 1 // one-shot and traced batches, probe
	oneShot := make([]*pmm.Results, len(cfgs))
	oneShotWall := make([]time.Duration, len(cfgs))
	for i, cfg := range cfgs {
		t := time.Now()
		r, err := pmm.Run(cfg)
		oneShotWall[i] = time.Since(t)
		if err != nil {
			o.fail(len(cfgs), "one-shot %s: %v", cfg.PolicyName(), err)
			return err
		}
		oneShot[i] = r
	}
	sameResults(o, "System.Run vs one-shot pmm.Run", b.results, oneShot)

	// Traced, sliced batch.
	spans := &spanLog{}
	root := spans.begin("workload "+w.name, "workload", -1)
	sinks := make([]*layerSink, len(cfgs))
	traced := make([]*pmm.Results, len(cfgs))
	t0 := time.Now()
	for i, cfg := range cfgs {
		res, sink, err := runSliced(spans, root, cfg)
		if err != nil {
			o.fail(len(cfgs), "traced %s: %v", cfg.PolicyName(), err)
			return err
		}
		traced[i], sinks[i] = res, sink
		if got := sink.events(); got != b.steps[i] {
			o.fail(1, "sink saw %d events, kernel stepped %d (%s)", got, b.steps[i], cfg.PolicyName())
		}
	}
	tracedWall := time.Since(t0)
	spans.end(root)
	sameResults(o, "traced vs untraced", b.results, traced)
	sameResults(o, "sliced vs one-shot", oneShot, traced)

	// pmm.RunTraced over pmm.Run on the batch's PMM configuration.
	pi := w.pmmIndex()
	t := time.Now()
	pr, tr, err := pmm.RunTraced(cfgs[pi], probeWindow)
	probeWall := time.Since(t)
	if err != nil {
		o.fail(1, "RunTraced: %v", err)
		return err
	}
	sameResults(o, "RunTraced vs Run", oneShot[pi:pi+1], []*pmm.Results{pr})
	grants := countGrants(tr)

	all := spans.snapshot()
	if err := env.writeSpans(all); err != nil {
		return err
	}
	printSelfTimes(env, all, sinks, tracedWall)

	resultsLayer(o, traced)
	sinkLayer(o, traced, sinks, b)
	o.set("policy.grants", float64(grants))
	o.set("runner.jobs", float64(warmJobs))
	jt := tailOf(seconds(b.jobs))
	fmt.Fprintf(env.stdout, "runner.job_s_tail: %s\n", jt)
	o.set("runner.job_s_p50", median(seconds(b.jobs)))
	o.set("runner.job_s_tail", jt.Value)
	var jobSum time.Duration
	for _, j := range b.jobs {
		jobSum += j
	}
	o.set("runner.worker_busy", jobSum.Seconds()/b.wall.Seconds())
	o.set("runner.hit_ms_p50", median(hitMs))
	for _, d := range drivers {
		o.set("exp."+d.name+"_s", 0)
	}
	o.set("trace.overhead", probeWall.Seconds()/oneShotWall[pi].Seconds())
	o.set("bench.trace_overhead", (tracedWall - b.wall).Seconds())
	o.set("runtime.mallocs", float64(b.mem.mallocs))
	o.set("runtime.gc_cycles", float64(b.mem.gcs))
	o.set("runtime.gc_pause_ms", float64(b.mem.pauseNs)/1e6)
	return nil
}

// pmmIndex is the position of PMM in the workload's policy list.
func (w singleWorkload) pmmIndex() int {
	for i, p := range w.policies {
		if p.Kind == pmm.PolicyPMM {
			return i
		}
	}
	return len(w.policies) - 1
}

// runSliced builds one system with the benchmark's sink attached,
// advances it with Kernel.Run in fixed simulated slices and finishes it
// with System.Run, recording setup, slice and finish spans.
func runSliced(spans *spanLog, parent int, cfg pmm.Config) (*pmm.Results, *layerSink, error) {
	sim := spans.begin(cfg.PolicyName(), "simulation", parent)
	defer spans.end(sim)
	st := spans.begin("setup", "setup", sim)
	sys, err := pmm.New(cfg)
	spans.end(st)
	if err != nil {
		return nil, nil, err
	}
	sink := newLayerSink()
	k := sys.Kernel()
	k.SetSink(sink)
	for t := float64(sliceSim); t < cfg.Duration; t += sliceSim {
		sl := spans.begin(fmt.Sprintf("slice to %gs", t), "slice", sim)
		sink.beginSlice()
		k.Run(t)
		sink.endSlice()
		spans.end(sl)
	}
	fin := spans.begin("finish", "finish", sim)
	sink.beginSlice()
	res := sys.Run()
	sink.endSlice()
	spans.end(fin)
	return res, sink, nil
}

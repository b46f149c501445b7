package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"pmm"
	"pmm/internal/exp"
	"pmm/internal/resultstore"
	"pmm/internal/trace"
)

// sweepTenants is the multi-tenant cell count of the sweep's tenants
// report.
const sweepTenants = 4

// drivers are the internal/exp figure drivers in exp.All order.
var drivers = []struct {
	name string
	run  func(exp.Options) ([]*exp.Report, error)
}{
	{"baseline", exp.Baseline},
	{"pmmtrace", exp.PMMTraceBaseline},
	{"contention", exp.DiskContention},
	{"minmaxn", exp.MinMaxNSweep},
	{"changes", exp.WorkloadChanges},
	{"utillow", exp.UtilLowSensitivity},
	{"sorts", exp.ExternalSorts},
	{"multiclass", exp.Multiclass},
	{"scalability", exp.Scalability},
	{"overload", exp.Overload},
	{"tenants", exp.MultiTenant},
}

// sweepOptions is the `paperrepro -quick -tenants 4` grid at the run's
// seed, on one worker per CPU.
func (env *runEnv) sweepOptions(store *pmm.ResultStore, progress *pmm.SweepProgress) exp.Options {
	return exp.Options{
		Seed: env.seed, Quick: true, Tenants: sweepTenants,
		Workers: env.workers, Store: store, Progress: progress,
	}
}

// pass is one run of the whole grid.
type pass struct {
	reports    []*exp.Report
	wall       time.Duration
	driverWall []time.Duration
	mem        memDelta
	jobs       int // runner jobs: store hits plus misses
	stats      pmm.ResultStoreStats
}

// runPass calls every driver in order. With a job log it records one
// span per driver under root, gives each driver its own SweepProgress
// and turns the driver's completed jobs into spans. A non-nil pause
// runs after each driver; its time and allocations are not part of the
// pass.
func runPass(o exp.Options, jobs *jobLog, root int, pause func() error) (*pass, error) {
	p := &pass{}
	before := o.Store.Stats()
	var m0, m1 runtime.MemStats
	var paused memDelta
	runtime.ReadMemStats(&m0)
	for _, d := range drivers {
		sp := -1
		if jobs != nil {
			sp = jobs.spans.begin("driver "+d.name, "driver", root)
			o.Progress = pmm.NewSweepProgress(jobs)
		}
		t := time.Now()
		reports, err := d.run(o)
		p.driverWall = append(p.driverWall, time.Since(t))
		if jobs != nil {
			jobs.spans.end(sp)
			jobs.driverDone(sp, o.Progress.Trace())
		}
		if err != nil {
			return nil, fmt.Errorf("driver %s: %w", d.name, err)
		}
		p.reports = append(p.reports, reports...)
		p.wall += p.driverWall[len(p.driverWall)-1]
		if pause != nil {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			err := pause()
			runtime.ReadMemStats(&b)
			paused = paused.plus(memBetween(&a, &b))
			if err != nil {
				return nil, err
			}
		}
	}
	runtime.ReadMemStats(&m1)
	p.mem = memBetween(&m0, &m1).minus(paused)
	p.stats = o.Store.Stats()
	p.jobs = int(p.stats.Hits + p.stats.Misses - before.Hits - before.Misses)
	return p, nil
}

// cells renders what a pass computed: every report's id, title, header
// and rows. Notes are left out, because they name cache traffic.
func cells(reports []*exp.Report) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "%s|%s|%s\n", r.ID, r.Title, strings.Join(r.Header, "|"))
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%s\n", strings.Join(row, "|"))
		}
	}
	return b.String()
}

// storeKeys lists the keys a store holds, from its index log.
func storeKeys(dir string) ([]resultstore.Key, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		return nil, fmt.Errorf("store index: %w", err)
	}
	var keys []resultstore.Key
	seen := map[resultstore.Key]bool{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var e struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("store index line %q: %w", sc.Text(), err)
		}
		kb, err := hex.DecodeString(e.Key)
		var k resultstore.Key
		if err != nil || len(kb) != len(k) {
			return nil, fmt.Errorf("store index key %q", e.Key)
		}
		copy(k[:], kb)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys, sc.Err()
}

// setupSamples collects the sweep's set-up times: opening a fresh
// store, as before a cold pass, and reopening a filled one, as before a
// warm pass, each with the grid's option set-up. The samples are taken
// between drivers across the whole run, so they span the host's slow
// and fast stretches instead of one instant.
type setupSamples struct {
	fresh, filled []float64
}

// openFresh opens a new store, timing it.
func (ss *setupSamples) openFresh(env *runEnv) (*pmm.ResultStore, string, error) {
	dir := env.freshDir("sweep-store")
	t := time.Now()
	store, err := pmm.OpenResultStore(dir)
	if err == nil {
		_ = env.sweepOptions(store, nil)
	}
	ss.fresh = append(ss.fresh, time.Since(t).Seconds())
	return store, dir, err
}

// sample takes one fresh-open sample, discarding the store, and, when
// filled is non-empty, one timed reopen of the filled store there.
func (ss *setupSamples) sample(env *runEnv, filled string) error {
	store, dir, err := ss.openFresh(env)
	if err != nil {
		return err
	}
	store.Close()
	os.RemoveAll(dir)
	if filled == "" {
		return nil
	}
	t := time.Now()
	store, err = pmm.OpenResultStore(filled)
	if err == nil {
		_ = env.sweepOptions(store, nil)
	}
	ss.filled = append(ss.filled, time.Since(t).Seconds())
	if err != nil {
		return err
	}
	return store.Close()
}

// checkWarm compares a warm pass with the cold pass it repeats.
func checkWarm(o *outcome, cold, warm *pass, before pmm.ResultStoreStats) {
	if cells(warm.reports) != cells(cold.reports) {
		o.fail(warm.jobs, "warm report cells differ from cold")
	}
	if m, pe := warm.stats.Misses-before.Misses, warm.stats.PutErrors-before.PutErrors; m != 0 || pe != 0 {
		o.fail(int(m), "warm pass: %d store misses, %d put errors", m, pe)
	}
}

// storedResults reads back every result of a filled store in key
// order, checks it, and prints the sweep's simulated statistics and
// sim_digest.
func storedResults(env *runEnv, o *outcome, store *pmm.ResultStore, dir string) ([]*pmm.Results, []resultstore.Key, error) {
	keys, err := storeKeys(dir)
	if err != nil {
		return nil, nil, err
	}
	rs := make([]*pmm.Results, len(keys))
	for i, k := range keys {
		r, ok := store.Get(k)
		if !ok {
			return nil, nil, fmt.Errorf("store get %s: miss", k)
		}
		rs[i] = r
	}
	checkAll(o, "sweep", rs)
	if err := printSweepStats(env, keys, rs); err != nil {
		return nil, nil, err
	}
	return rs, keys, nil
}

// printSweepStats prints per-policy simulated totals and the digest
// over every stored result, ordered by key.
func printSweepStats(env *runEnv, keys []resultstore.Key, rs []*pmm.Results) error {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sortByKey(order, keys)
	d := newDigest()
	type tot struct{ n, term, missed, rejected int }
	byPolicy := map[string]*tot{}
	var names []string
	for _, i := range order {
		if err := d.add(rs[i]); err != nil {
			return err
		}
		t := byPolicy[rs[i].Policy]
		if t == nil {
			t = &tot{}
			byPolicy[rs[i].Policy] = t
			names = append(names, rs[i].Policy)
		}
		t.n++
		t.term += rs[i].Terminated
		t.missed += rs[i].Missed
		t.rejected += rs[i].Rejected
	}
	for _, name := range names {
		t := byPolicy[name]
		fmt.Fprintf(env.stdout, "sim %-13s simulations %4d terminated %7d missed %7d miss %.4f rejected %6d\n",
			name, t.n, t.term, t.missed, ratio(float64(t.missed), float64(t.term)), t.rejected)
	}
	fmt.Fprintf(env.stdout, "sim_digest %s (seed %d, %d simulations)\n", d, env.seed, len(rs))
	return nil
}

func sortByKey(order []int, keys []resultstore.Key) {
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(keys[a][:], keys[b][:]) })
}

// maxColdPasses caps the cold passes of an untraced sweep run.
const maxColdPasses = 3

// sweepWarmMin is the fewest warm passes, and filled-store reopens, an
// untraced sweep run makes.
const sweepWarmMin = 9

// sweepMeasure is the untraced timed run: cold passes, each into a
// fresh store, started until --seconds have passed (so one on a slow
// host, two or three on a fast one). After each driver of the first pass it times a
// fresh store open; after each driver of the later passes also a reopen
// of the first pass's filled store and a warm pass from it, so the
// set-up and warm samples spread over the run. wall_s, alloc_mb and
// sim_h_per_s are means over the cold passes, and peak_rss_mb is the
// process's peak after the first. setup_s is the median fresh open plus
// the median filled reopen.
func sweepMeasure(env *runEnv, o *outcome) error {
	var colds []*pass
	var simH, peakRSS float64
	var first *pmm.ResultStore
	var firstDir string
	var setups setupSamples
	var warms []float64
	warm := func() error {
		before := first.Stats()
		w, err := runPass(env.sweepOptions(first, nil), nil, -1, nil)
		if err != nil {
			o.fail(colds[0].jobs, "warm pass: %v", err)
			return err
		}
		checkWarm(o, colds[0], w, before)
		warms = append(warms, w.wall.Seconds())
		return nil
	}
	start := time.Now()
	for i := 0; i < maxColdPasses && (i == 0 || time.Since(start) < env.seconds); i++ {
		store, dir, err := setups.openFresh(env)
		if err != nil {
			return err
		}
		defer store.Close()
		pause := func() error { return setups.sample(env, "") }
		if i > 0 {
			pause = func() error {
				if err := setups.sample(env, firstDir); err != nil {
					return err
				}
				return warm()
			}
		}
		runtime.GC()
		cold, err := runPass(env.sweepOptions(store, nil), nil, -1, pause)
		if err != nil {
			o.attempted++
			o.fail(1, "cold pass %d: %v", i, err)
			return err
		}
		o.attempted += cold.jobs
		if cold.stats.PutErrors != 0 {
			o.fail(int(cold.stats.PutErrors), "cold pass %d: %d put errors", i, cold.stats.PutErrors)
		}
		if i == 0 {
			peakRSS = peakRSSMB()
			first, firstDir = store, dir
			rs, _, err := storedResults(env, o, store, dir)
			if err != nil {
				o.fail(cold.jobs, "%v", err)
				return err
			}
			simH = simHours(rs)
		} else if cells(cold.reports) != cells(colds[0].reports) {
			o.fail(cold.jobs, "cold pass %d report cells differ from cold pass 0", i)
		}
		colds = append(colds, cold)
	}
	for len(warms) < sweepWarmMin || len(setups.filled) < sweepWarmMin {
		if err := setups.sample(env, firstDir); err != nil {
			return err
		}
		if err := warm(); err != nil {
			return err
		}
	}
	var walls, allocs []float64
	for _, c := range colds {
		walls = append(walls, c.wall.Seconds())
		allocs = append(allocs, float64(c.mem.alloc)/1e6)
		fmt.Fprintf(env.stdout, "cold pass %d jobs (%d simulated) in %.3f s, alloc %.1f MB\n", c.jobs, c.stats.Misses, c.wall.Seconds(), float64(c.mem.alloc)/1e6)
	}
	fmt.Fprintf(env.stdout, "warm passes %d\n", len(warms))
	printSpread(env, "warm_s", warms)
	printSpread(env, "setup_s fresh store", setups.fresh)
	printSpread(env, "setup_s filled store", setups.filled)
	total := sum(walls)
	o.set("wall_s", total/float64(len(walls)))
	o.set("setup_s", median(setups.fresh)+median(setups.filled))
	o.set("sim_h_per_s", simH*float64(len(walls))/total)
	o.set("warm_s", median(warms))
	o.set("alloc_mb", sum(allocs)/float64(len(allocs)))
	o.set("peak_rss_mb", peakRSS)
	return nil
}

// sweepTraced is the --trace 1 run: an untraced cold pass for the
// host-time baseline, then a traced cold pass whose runner jobs are
// spans taken from SweepProgress, warm passes, the store timings and a
// pmm.RunTraced probe.
func sweepTraced(env *runEnv, o *outcome) error {
	storeA, err := pmm.OpenResultStore(env.freshDir("sweep-store"))
	if err != nil {
		return err
	}
	runtime.GC()
	untraced, err := runPass(env.sweepOptions(storeA, nil), nil, -1, nil)
	storeA.Close()
	if err != nil {
		o.attempted++
		o.fail(1, "untraced pass: %v", err)
		return err
	}
	o.attempted += untraced.jobs

	dirB := env.freshDir("sweep-store")
	storeB, err := pmm.OpenResultStore(dirB)
	if err != nil {
		return err
	}
	defer storeB.Close()
	spans := &spanLog{}
	jobs := &jobLog{spans: spans}
	root := spans.begin("workload sweep", "workload", -1)
	opts := env.sweepOptions(storeB, nil)
	runtime.GC()
	traced, err := runPass(opts, jobs, root, nil)
	spans.end(root)
	if err != nil {
		o.attempted++
		o.fail(1, "traced pass: %v", err)
		return err
	}
	o.attempted += traced.jobs
	if cells(traced.reports) != cells(untraced.reports) {
		o.fail(traced.jobs, "traced report cells differ from untraced")
	}
	if n := traced.stats.PutErrors + untraced.stats.PutErrors; n != 0 {
		o.fail(int(n), "cold passes: %d put errors", n)
	}

	var hitMs []float64
	for r := 0; r < warmRepeats; r++ {
		before := storeB.Stats()
		warm, err := runPass(opts, nil, -1, nil)
		if err != nil {
			o.fail(traced.jobs, "warm pass: %v", err)
			return err
		}
		checkWarm(o, traced, warm, before)
		hitMs = append(hitMs, warm.wall.Seconds()*1e3/float64(max(warm.jobs, 1)))
	}
	st := storeB.Stats()
	rs, keys, err := storedResults(env, o, storeB, dirB)
	if err != nil {
		o.fail(traced.jobs, "%v", err)
		return err
	}
	if _, err := storeLayer(env, o, dirB, keys, st); err != nil {
		return err
	}

	probe, err := tracedProbe(env, o)
	if err != nil {
		return err
	}

	all := spans.snapshot()
	assignLanes(all, "job", 1)
	if err := env.writeSpans(all); err != nil {
		return err
	}
	printSelfTimes(env, all, nil, traced.wall)

	resultsLayer(o, rs)
	zeroSinkLayer(o)
	o.set("policy.grants", float64(probe.grants))
	o.set("trace.overhead", probe.overhead)
	walls, hits, unparsed := jobs.snapshot()
	if unparsed > 0 {
		fmt.Fprintf(env.stdout, "progress lines not understood: %d\n", unparsed)
	}
	jt := tailOf(walls)
	fmt.Fprintf(env.stdout, "runner jobs %d simulated, %d from the store; runner.job_s_tail: %s\n", len(walls), hits, jt)
	var busy float64
	for _, w := range walls {
		busy += w
	}
	o.set("runner.jobs", float64(traced.jobs))
	o.set("runner.job_s_p50", median(walls))
	o.set("runner.job_s_tail", jt.Value)
	o.set("runner.worker_busy", busy/(float64(env.workers)*traced.wall.Seconds()))
	o.set("runner.hit_ms_p50", median(hitMs))
	for i, d := range drivers {
		o.set("exp."+d.name+"_s", traced.driverWall[i].Seconds())
	}
	o.set("bench.trace_overhead", (traced.wall - untraced.wall).Seconds())
	o.set("runtime.mallocs", float64(untraced.mem.mallocs))
	o.set("runtime.gc_cycles", float64(untraced.mem.gcs))
	o.set("runtime.gc_pause_ms", float64(untraced.mem.pauseNs)/1e6)
	return nil
}

// probeResult is what the trace-overhead probe measured.
type probeResult struct {
	grants   int
	overhead float64
}

// tracedProbe runs one quick-grid baseline PMM configuration with
// pmm.Run and with pmm.RunTraced, checks they agree, and returns the
// wall-time ratio and the grant instants recorded.
func tracedProbe(env *runEnv, o *outcome) (probeResult, error) {
	cfg := pmm.BaselineConfig()
	cfg.Classes[0].ArrivalRate = 0.06
	cfg.Duration = 6000
	cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyPMM}
	cfg.Seed = env.seed
	o.attempted += 2
	t := time.Now()
	plain, err := pmm.Run(cfg)
	plainWall := time.Since(t)
	if err != nil {
		o.fail(2, "probe Run: %v", err)
		return probeResult{}, err
	}
	t = time.Now()
	res, tr, err := pmm.RunTraced(cfg, probeWindow)
	tracedWall := time.Since(t)
	if err != nil {
		o.fail(2, "probe RunTraced: %v", err)
		return probeResult{}, err
	}
	checkAll(o, "probe", []*pmm.Results{plain, res})
	sameResults(o, "RunTraced vs Run", []*pmm.Results{plain}, []*pmm.Results{res})
	return probeResult{grants: countGrants(tr), overhead: tracedWall.Seconds() / plainWall.Seconds()}, nil
}

// countGrants counts the memory-grant instants of a run trace.
func countGrants(tr *pmm.RunTrace) int {
	n := 0
	for _, c := range tr.Shards {
		for _, in := range c.Instants() {
			if in.Kind == trace.InstGrant {
				n++
			}
		}
	}
	return n
}

// progressLine matches one SweepProgress completion line.
var progressLine = regexp.MustCompile(`^sweep \d+/\d+ (.*) rep (\d+) (\S+)`)

// jobLog is the io.Writer behind the traced pass's SweepProgress. It
// notes when each simulated job's completion line was written; once
// the driver returns, each job becomes a span ending then and lasting
// the exact wall time its point's PointTrace reports.
type jobLog struct {
	spans *spanLog

	mu       sync.Mutex
	pending  []byte
	done     []jobDone // completions of the running driver
	walls    []float64 // simulated job walls of every driver
	hits     int
	unparsed int
}

// jobDone is one simulated job's completion line.
type jobDone struct {
	key, rep string
	at       time.Time
}

// Write implements io.Writer.
func (l *jobLog) Write(p []byte) (int, error) {
	t := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = append(l.pending, p...)
	for {
		i := bytes.IndexByte(l.pending, '\n')
		if i < 0 {
			break
		}
		l.line(string(l.pending[:i]), t)
		l.pending = l.pending[i+1:]
	}
	return len(p), nil
}

func (l *jobLog) line(s string, t time.Time) {
	m := progressLine.FindStringSubmatch(s)
	switch {
	case m == nil:
		l.unparsed++
	case m[3] == "cached":
		l.hits++
	default:
		l.done = append(l.done, jobDone{key: m[1], rep: m[2], at: t})
	}
}

// driverDone turns the finished driver's completions into job spans
// under parent, timed from the driver's sweep trace.
func (l *jobLog) driverDone(parent int, tr *pmm.SweepTrace) {
	perJob := map[string]float64{}
	for _, pt := range tr.Points {
		if pt.CacheMisses > 0 {
			perJob[pt.Key] = pt.WallSeconds / float64(pt.CacheMisses)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, d := range l.done {
		wall, ok := perJob[d.key]
		if !ok {
			l.unparsed++
			continue
		}
		l.walls = append(l.walls, wall)
		start := d.at.Add(-time.Duration(wall * float64(time.Second)))
		l.spans.add(d.key+" rep "+d.rep, "job", parent, start, d.at)
	}
	l.done = l.done[:0]
}

// snapshot returns the simulated jobs' walls, the cache hits, and the
// count of lines that could not be placed.
func (l *jobLog) snapshot() ([]float64, int, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.walls...), l.hits, l.unparsed
}

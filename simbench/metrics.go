package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names one reported metric. The two lists below are the
// single source of the names and units that BENCHMARK.json declares
// (a test keeps the two in step).
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher": the direction a change should move
	// the metric. Only end-to-end metrics carry a bound.
	Better string
}

// endToEnd are the metrics a user of the simulator sees, reported with
// tracing off (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_h_per_s", "sim_h/s", "higher"},
	{"warm_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// missPolicies are the policies with a rtdbs.miss_ratio.<name> metric,
// keyed by their Results.Policy display name.
var missPolicies = []struct{ metric, display string }{
	{"max", "Max"}, {"minmax", "MinMax"}, {"proportional", "Proportional"}, {"pmm", "PMM"},
}

// perLayer are the metrics of single layers, reported by the traced
// run (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count", "lower"},
		{"sim.events_per_page", "events/page", "lower"},
		{"sim.events_per_query", "events/query", "lower"},
		{"sim.turns", "count", "lower"},
		{"sim.completes", "count", "lower"},
		{"sim.wakes", "count", "lower"},
		{"sim.cancels", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"sim.turn_ns", "ns", "lower"},
		{"sim.complete_ns", "ns", "lower"},
		{"cpu.bursts", "count", "lower"},
		{"cpu.util", "ratio", "higher"},
		{"cpu.queue_sim_s", "sim_s", "lower"},
		{"disk.accesses", "count", "lower"},
		{"disk.pages_per_access", "pages/access", "higher"},
		{"disk.util_avg", "ratio", "higher"},
		{"disk.util_max", "ratio", "higher"},
		{"disk.queue_sim_s", "sim_s", "lower"},
		{"buffer.lookups", "count", "lower"},
		{"buffer.hit_ratio", "ratio", "higher"},
		{"query.pages_read", "pages", "lower"},
		{"query.pages_spooled", "pages", "lower"},
		{"query.io_amp", "ratio", "lower"},
		{"query.useful_io_ratio", "ratio", "higher"},
		{"query.turn_ns_per_page", "ns/page", "lower"},
		{"core.pmm_batches", "count", "lower"},
		{"core.pmm_restarts", "count", "lower"},
		{"policy.grants", "count", "lower"},
		{"policy.fluct_per_query", "changes/query", "lower"},
		{"rtdbs.queries", "count", "higher"},
		{"rtdbs.rejected", "count", "lower"},
		{"rtdbs.admit_delay_sim_s", "sim_s", "lower"},
		{"rtdbs.mpl", "queries", "higher"},
	}
	for _, p := range missPolicies {
		defs = append(defs, metricDef{"rtdbs.miss_ratio." + p.metric, "ratio", "lower"})
	}
	defs = append(defs,
		metricDef{"rtdbs.broker_exchanges", "count", "lower"},
		metricDef{"workload.arrivals", "count", "higher"},
		metricDef{"runner.jobs", "count", "lower"},
		metricDef{"runner.job_s_p50", "s", "lower"},
		metricDef{"runner.job_s_tail", "s", "lower"},
		metricDef{"runner.worker_busy", "ratio", "higher"},
		metricDef{"runner.hit_ms_p50", "ms", "lower"},
		metricDef{"resultstore.open_ms", "ms", "lower"},
		metricDef{"resultstore.get_us", "us", "lower"},
		metricDef{"resultstore.put_us", "us", "lower"},
		metricDef{"resultstore.bytes_per_result", "bytes", "lower"},
		metricDef{"resultstore.hits", "count", "higher"},
		metricDef{"resultstore.misses", "count", "lower"},
	)
	for _, d := range drivers {
		defs = append(defs, metricDef{"exp." + d.name + "_s", "s", "lower"})
	}
	return append(defs,
		metricDef{"trace.overhead", "ratio", "lower"},
		metricDef{"bench.trace_overhead", "s", "lower"},
		metricDef{"runtime.mallocs", "count", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
	)
}()

// outcome is what one benchmark run measured: metric values plus the
// correctness tally of the simulations it attempted.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string // one line per failed check
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail records a failed output check against n simulations.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// set records one metric value.
func (o *outcome) set(name string, v float64) { o.values[name] = v }

// jsonValue is one metric of the result line.
type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// emit prints every metric of defs as a "name = value unit" line and
// then the JSON result line. A metric the workload failed to set, or a
// value that is not finite, is an error: it is a benchmark bug.
func (o *outcome) emit(w io.Writer, defs []metricDef) error {
	line := resultLine{Metrics: map[string]jsonValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		fmt.Fprintf(w, "metric %-30s = %-14.6g %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = jsonValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics without a finite value: %s", strings.Join(missing, ", "))
	}
	failed := min(o.failed, o.attempted)
	fmt.Fprintf(w, "metric %-30s = %-14.6g ratio (failed %d of %d simulations attempted)\n",
		"fail_ratio", float64(failed)/float64(max(o.attempted, 1)), failed, o.attempted)
	line.Correct = o.failed == 0 && o.attempted > 0
	line.Attempted = o.attempted
	line.Failed = failed
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"pmm"
	"pmm/internal/resultstore"
	"pmm/internal/trace"
)

// pages is the page traffic of a run: operand reads plus spooling.
func pages(r *pmm.Results) int64 {
	io := r.IOBreakdown
	return io.RelRead + io.SpoolWrite + io.SpoolRead
}

// resultsLayer sets the per-layer metrics that finished Results carry:
// the simulated statistics of cpu, disk, buffer, query, policy/core,
// rtdbs and workload, summed or averaged over every simulation.
func resultsLayer(o *outcome, rs []*pmm.Results) {
	var cpuU, diskAvg, diskMax, fluct, delay, mpl float64
	var lookups, hits uint64
	var read, spooled, moved int64
	var batches, restarts, queries, rejected, exchanges, arrivals int
	for _, r := range rs {
		cpuU += r.CPUUtil
		diskAvg += r.AvgDiskUtil
		diskMax += r.MaxDiskUtil
		mpl += r.AvgMPL
		fluct += r.AvgFluctuations * float64(r.Terminated)
		delay += r.AvgQueueDelay * float64(r.Terminated)
		lookups += r.LRUHits + r.LRUMisses
		hits += r.LRUHits
		read += r.IOBreakdown.RelRead
		spooled += r.IOBreakdown.SpoolWrite + r.IOBreakdown.SpoolRead
		moved += pages(r)
		batches += len(r.PMMTrace)
		restarts += r.PMMRestarts
		queries += r.Terminated
		rejected += r.Rejected
		exchanges += r.BrokerExchanges
		arrivals += r.Arrived
	}
	n := float64(max(len(rs), 1))
	o.set("cpu.util", cpuU/n)
	o.set("disk.util_avg", diskAvg/n)
	o.set("disk.util_max", diskMax/n)
	o.set("buffer.lookups", float64(lookups))
	o.set("buffer.hit_ratio", ratio(float64(hits), float64(lookups)))
	o.set("query.pages_read", float64(read))
	o.set("query.pages_spooled", float64(spooled))
	o.set("query.io_amp", ratio(float64(moved), float64(read)))
	o.set("query.useful_io_ratio", ratio(float64(read), float64(moved)))
	o.set("core.pmm_batches", float64(batches))
	o.set("core.pmm_restarts", float64(restarts))
	o.set("policy.fluct_per_query", ratio(fluct, float64(queries)))
	o.set("rtdbs.queries", float64(queries))
	o.set("rtdbs.rejected", float64(rejected))
	o.set("rtdbs.admit_delay_sim_s", ratio(delay, float64(queries)))
	o.set("rtdbs.mpl", mpl/n)
	for _, p := range missPolicies {
		var missed, term int
		for _, r := range rs {
			if r.Policy == p.display {
				missed += r.Missed
				term += r.Terminated
			}
		}
		o.set("rtdbs.miss_ratio."+p.metric, ratio(float64(missed), float64(term)))
	}
	o.set("rtdbs.broker_exchanges", float64(exchanges))
	o.set("workload.arrivals", float64(arrivals))
}

// sinkLayer sets the kernel-level metrics of a traced batch: event
// counts by kind from the sinks, host time per event from the untraced
// batch b, and sink-attributed self time per event kind.
func sinkLayer(o *outcome, rs []*pmm.Results, sinks []*layerSink, b *batch) {
	var steps, turns, completes, wakes, cancels, bursts, accesses uint64
	var turnNs, compNs int64
	var cpuWait, diskWait float64
	for _, s := range sinks {
		ns, n := s.kindNs(trace.KindTurn)
		turnNs += ns
		turns += n
		ns, n = s.kindNs(trace.KindComplete, trace.KindCompleteQ)
		compNs += ns
		completes += n
		_, n = s.kindNs(trace.KindWake, trace.KindParkWake)
		wakes += n
		cancels += s.cancels
		bursts += s.cpuBursts()
		accesses += s.diskAccesses()
		cpuWait += s.waitSum[gateCPU]
		diskWait += s.waitSum[gateDisk]
	}
	for _, st := range b.steps {
		steps += st
	}
	var moved int64
	var queries int
	for _, r := range rs {
		moved += pages(r)
		queries += r.Terminated
	}
	o.set("sim.events", float64(steps))
	o.set("sim.events_per_page", ratio(float64(steps), float64(moved)))
	o.set("sim.events_per_query", ratio(float64(steps), float64(queries)))
	o.set("sim.turns", float64(turns))
	o.set("sim.completes", float64(completes))
	o.set("sim.wakes", float64(wakes))
	o.set("sim.cancels", float64(cancels))
	o.set("sim.ns_per_event", ratio(float64(b.run.Nanoseconds()), float64(steps)))
	o.set("sim.turn_ns", ratio(float64(turnNs), float64(turns)))
	o.set("sim.complete_ns", ratio(float64(compNs), float64(completes)))
	o.set("cpu.bursts", float64(bursts))
	o.set("cpu.queue_sim_s", ratio(cpuWait, float64(queries)))
	o.set("disk.accesses", float64(accesses))
	o.set("disk.pages_per_access", ratio(float64(moved), float64(accesses)))
	o.set("disk.queue_sim_s", ratio(diskWait, float64(queries)))
	o.set("query.turn_ns_per_page", ratio(float64(turnNs), float64(moved)))
}

// zeroSinkLayer reports the kernel-level metrics of a workload whose
// simulations the sink cannot reach.
func zeroSinkLayer(o *outcome) {
	for _, name := range []string{
		"sim.events", "sim.events_per_page", "sim.events_per_query", "sim.turns",
		"sim.completes", "sim.wakes", "sim.cancels", "sim.ns_per_event", "sim.turn_ns",
		"sim.complete_ns", "cpu.bursts", "cpu.queue_sim_s", "disk.accesses",
		"disk.pages_per_access", "disk.queue_sim_s", "query.turn_ns_per_page",
	} {
		o.set(name, 0)
	}
}

// storeSamples is the fewest timed Get and Put calls behind a median.
const storeSamples = 20

// storeLayer times the result store filled at dir: Open of the filled
// store, Get of every key, and Put of every result into scratch
// stores. It sets the resultstore metrics, with hits and misses from
// st, and returns the stored results in key order.
func storeLayer(env *runEnv, o *outcome, dir string, keys []resultstore.Key, st pmm.ResultStoreStats) ([]*pmm.Results, error) {
	var opens []float64
	var store *pmm.ResultStore
	for i := 0; i < 3; i++ {
		t := time.Now()
		s, err := pmm.OpenResultStore(dir)
		opens = append(opens, time.Since(t).Seconds()*1e3)
		if err != nil {
			return nil, err
		}
		if store != nil {
			store.Close()
		}
		store = s
	}
	defer store.Close()

	results := make([]*pmm.Results, len(keys))
	var gets []float64
	rounds := max(1, (storeSamples+len(keys)-1)/max(len(keys), 1))
	for r := 0; r < rounds; r++ {
		for i, k := range keys {
			t := time.Now()
			res, ok := store.Get(k)
			gets = append(gets, time.Since(t).Seconds()*1e6)
			if !ok {
				o.fail(1, "store get %s: miss on a stored key", k)
				return nil, fmt.Errorf("store get %s: miss", k)
			}
			results[i] = res
		}
	}

	var puts []float64
	for r := 0; r < rounds; r++ {
		scratch, err := pmm.OpenResultStore(env.freshDir("scratch-store"))
		if err != nil {
			return nil, err
		}
		for i, k := range keys {
			t := time.Now()
			err := scratch.Put(k, results[i])
			puts = append(puts, time.Since(t).Seconds()*1e6)
			if err != nil {
				o.fail(1, "scratch put: %v", err)
			}
		}
		if err := scratch.Close(); err != nil {
			return nil, err
		}
	}

	var bytes int64
	objects := 0
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		objects++
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.set("resultstore.open_ms", median(opens))
	o.set("resultstore.get_us", median(gets))
	o.set("resultstore.put_us", median(puts))
	o.set("resultstore.bytes_per_result", ratio(float64(bytes), float64(objects)))
	o.set("resultstore.hits", float64(st.Hits))
	o.set("resultstore.misses", float64(st.Misses))
	return results, nil
}

// printSelfTimes prints span self time by layer and the sink's host
// time by event kind, each as a share of the traced wall time.
func printSelfTimes(env *runEnv, spans []span, sinks []*layerSink, wall time.Duration) {
	byCat := selfByCat(spans)
	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	slices.Sort(cats)
	share := func(d time.Duration) float64 { return 100 * d.Seconds() / wall.Seconds() }
	fmt.Fprintf(env.stdout, "self time by span layer (traced wall %.3f s; parallel spans can sum past 100%%):\n", wall.Seconds())
	for _, c := range cats {
		fmt.Fprintf(env.stdout, "  span %-10s %10.3f s %6.1f%%\n", c, byCat[c].Seconds(), share(byCat[c]))
	}
	if len(sinks) == 0 {
		return
	}
	var kindNs [numKinds]int64
	var kindN [numKinds]uint64
	var pre int64
	for _, s := range sinks {
		for k := range kindNs {
			kindNs[k] += s.selfNs[k]
			kindN[k] += s.counts[k]
		}
		pre += s.preNs
	}
	fmt.Fprintln(env.stdout, "sink self time by kernel event kind (dispatch to next dispatch):")
	for k := range kindNs {
		if kindN[k] == 0 {
			continue
		}
		d := time.Duration(kindNs[k])
		fmt.Fprintf(env.stdout, "  kind %-10s %10d events %10.3f s %6.1f%% %8.1f ns/event\n",
			trace.KernelEventName(uint8(k)), kindN[k], d.Seconds(), share(d), float64(kindNs[k])/float64(kindN[k]))
	}
	fmt.Fprintf(env.stdout, "  before first dispatch of a slice %.6f s\n", time.Duration(pre).Seconds())
}

// peakRSSMB is the process's peak resident set in MB (10⁶ bytes), from
// VmHWM; where /proc is missing it falls back to the memory the Go
// runtime obtained from the system.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}

package pmm

// Preset configurations reproducing the workloads of the paper's
// evaluation (§5). Each returns a fresh Config that callers may adjust —
// typically the arrival rate, the policy, and the seed.

// mediumJoinGroups is the two-group database of the baseline experiment:
// inner relations of 600–1800 pages and outer relations of 3000–9000
// pages, five of each per disk at equal size intervals (§5.1, Table 6).
func mediumJoinGroups() []GroupSpec {
	return []GroupSpec{
		{RelPerDisk: 5, SizeRange: [2]int{600, 1800}},
		{RelPerDisk: 5, SizeRange: [2]int{3000, 9000}},
	}
}

// smallJoinGroups is the Small-class database of §5.3/§5.6 (Table 8):
// inner relations of 50–150 pages and outer relations of 250–750 pages.
func smallJoinGroups() []GroupSpec {
	return []GroupSpec{
		{RelPerDisk: 5, SizeRange: [2]int{50, 150}},
		{RelPerDisk: 5, SizeRange: [2]int{250, 750}},
	}
}

// BaselineConfig returns the §5.1 baseline experiment: one class of
// Medium hash joins on a memory-constrained 10-disk system
// (40 MIPS, M = 2560 pages). Default arrival rate 0.04 queries/second;
// the paper sweeps 0.04–0.08.
func BaselineConfig() Config {
	return Config{
		Seed:     1,
		Duration: 36000,
		Groups:   mediumJoinGroups(),
		Classes: []ClassSpec{{
			Name:        "Medium",
			Kind:        HashJoin,
			RelGroups:   []int{0, 1},
			ArrivalRate: 0.04,
			SlackRange:  [2]float64{2.5, 7.5},
		}},
	}
}

// DiskContentionConfig returns the §5.2 moderate-disk-contention
// experiment: the baseline with six disks instead of ten.
func DiskContentionConfig() Config {
	cfg := BaselineConfig()
	cfg.Disk = DefaultDiskParams()
	cfg.Disk.NumDisks = 6
	return cfg
}

// WorkloadChangeConfig returns the §5.3 experiment: the workload
// alternates between Small and Medium hash-join classes every 2–5
// simulated hours on a 6-disk system (Table 8: Medium λ = 0.07,
// Small λ = 2.8). Phase durations follow the paper's 2–5 hour pattern.
func WorkloadChangeConfig() Config {
	cfg := Config{
		Seed:     1,
		Duration: 72000, // 20 simulated hours, ~5 intervals
		Groups:   append(mediumJoinGroups(), smallJoinGroups()...),
		Classes: []ClassSpec{
			{Name: "Medium", Kind: HashJoin, RelGroups: []int{0, 1},
				ArrivalRate: 0.07, SlackRange: [2]float64{2.5, 7.5}},
			{Name: "Small", Kind: HashJoin, RelGroups: []int{2, 3},
				ArrivalRate: 2.8, SlackRange: [2]float64{2.5, 7.5}},
		},
		// Alternate Medium-only and Small-only intervals, 2–5 h long.
		Phases: []Phase{
			{Duration: 14400, Rates: []float64{0.07, 0}}, // 4 h Medium
			{Duration: 10800, Rates: []float64{0, 2.8}},  // 3 h Small
			{Duration: 18000, Rates: []float64{0.07, 0}}, // 5 h Medium
			{Duration: 7200, Rates: []float64{0, 2.8}},   // 2 h Small
			{Duration: 21600, Rates: []float64{0.07, 0}}, // 6 h Medium
		},
	}
	cfg.Disk = DefaultDiskParams()
	cfg.Disk.NumDisks = 6
	return cfg
}

// ExternalSortConfig returns the §5.5 experiment: the baseline database
// and resources, but every query sorts one 600–1800 page relation.
// Default arrival rate 0.04; the paper sweeps 0.04–0.12.
func ExternalSortConfig() Config {
	return Config{
		Seed:     1,
		Duration: 36000,
		Groups: []GroupSpec{
			{RelPerDisk: 5, SizeRange: [2]int{600, 1800}},
		},
		Classes: []ClassSpec{{
			Name:        "Sort",
			Kind:        ExternalSort,
			RelGroups:   []int{0},
			ArrivalRate: 0.04,
			SlackRange:  [2]float64{2.5, 7.5},
		}},
	}
}

// MulticlassConfig returns the §5.6 experiment: Medium joins at a fixed
// 0.065 queries/second plus Small joins at the given rate, on 12 disks.
func MulticlassConfig(smallRate float64) Config {
	cfg := Config{
		Seed:     1,
		Duration: 36000,
		Groups:   append(mediumJoinGroups(), smallJoinGroups()...),
		Classes: []ClassSpec{
			{Name: "Medium", Kind: HashJoin, RelGroups: []int{0, 1},
				ArrivalRate: 0.065, SlackRange: [2]float64{2.5, 7.5}},
			{Name: "Small", Kind: HashJoin, RelGroups: []int{2, 3},
				ArrivalRate: smallRate, SlackRange: [2]float64{2.5, 7.5}},
		},
	}
	cfg.Disk = DefaultDiskParams()
	cfg.Disk.NumDisks = 12
	return cfg
}

// ScaledConfig scales the disk-contention experiment by factor k (§5.7):
// relation sizes and memory grow by k while arrival rates shrink by k,
// holding resource utilization constant.
func ScaledConfig(k float64) Config {
	cfg := DiskContentionConfig()
	cfg.MemoryPages = int(2560 * k)
	for gi := range cfg.Groups {
		cfg.Groups[gi].SizeRange[0] = int(float64(cfg.Groups[gi].SizeRange[0]) * k)
		cfg.Groups[gi].SizeRange[1] = int(float64(cfg.Groups[gi].SizeRange[1]) * k)
	}
	for ci := range cfg.Classes {
		cfg.Classes[ci].ArrivalRate /= k
	}
	// Larger relations need more cylinders; scale the disk so the
	// database still fits.
	if k > 1 {
		cfg.Disk = DefaultDiskParams()
		cfg.Disk.NumDisks = 6
		cfg.Disk.NumCylinders = int(1500 * k)
	}
	return cfg
}

// OverloadConfig returns the open-system overload preset: a population
// of `clients` simulated clients (default 100 000 when ≤ 0) issuing
// Small hash joins against a 6-disk system, with a diurnal arrival
// rate — aggregate base 2.4 queries/second swinging ±60% over a
// 2-hour period, so the peak (≈3.8/s) exceeds the ~2.8/s the §5.3
// Small workload saturates this configuration at — behind a bounded
// 16-slot admission queue. The population is count-batched: any client
// count costs one kernel timer, and overload sheds load as explicit
// per-class rejections (Results.Rejected/LossRatio) instead of
// unbounded queueing. Default horizon two diurnal periods.
func OverloadConfig(clients int) Config {
	if clients <= 0 {
		clients = 100_000
	}
	cfg := Config{
		Seed:     1,
		Duration: 14400, // 4 simulated hours: two diurnal periods
		Groups:   smallJoinGroups(),
		Classes: []ClassSpec{{
			Name:        "Clients",
			Kind:        HashJoin,
			RelGroups:   []int{0, 1},
			ArrivalRate: 2.4 / float64(clients), // per client; aggregate 2.4/s
			SlackRange:  [2]float64{2.5, 7.5},
			Population:  clients,
			Modulation: Modulation{
				Kind:      ModDiurnal,
				Period:    7200,
				Amplitude: 0.6,
			},
		}},
		AdmitQueue: 16,
	}
	cfg.Disk = DefaultDiskParams()
	cfg.Disk.NumDisks = 6
	return cfg
}

// MultiTenantConfig returns the partitioned-execution preset: `tenants`
// independent cells of the §5.1 baseline topology — each a complete
// 10-disk, 2560-page, one-class system — coupled only by the global
// memory broker rebalancing the combined Tenants×2560-page budget every
// simulated second. This is the scaled-up "many lines of business on
// one box" topology the partitioned path exists for: simulated work
// grows linearly with tenants while each cell's event loop stays the
// baseline size, so on a multi-core host wall clock scales down with
// Shards (results are identical for every Shards value). Tenant cells
// are the only partitioning: each cell runs on one kernel.
func MultiTenantConfig(tenants int) Config {
	cfg := BaselineConfig()
	cfg.Tenants = tenants
	cfg.SyncInterval = 1.0
	return cfg
}

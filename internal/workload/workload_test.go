package workload

import (
	"math"
	"testing"

	"pmm/internal/catalog"
	"pmm/internal/disk"
	"pmm/internal/query"
	"pmm/internal/sim"
)

func newGen(t testing.TB, classes []ClassSpec) *Generator {
	t.Helper()
	k := sim.NewKernel()
	dp := disk.DefaultParams()
	dp.NumDisks = 4
	groups := []catalog.GroupSpec{
		{RelPerDisk: 5, SizeRange: [2]int{600, 1800}},
		{RelPerDisk: 5, SizeRange: [2]int{3000, 9000}},
	}
	m, err := disk.NewManager(k, dp, catalog.CylindersNeeded(groups, dp.CylinderSize), 9)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Build(m, groups, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(cat, dp, 40, DefaultParams(), classes, 9)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func joinClass() ClassSpec {
	return ClassSpec{Name: "M", Kind: query.HashJoin, RelGroups: []int{0, 1},
		ArrivalRate: 0.05, SlackRange: [2]float64{2.5, 7.5}}
}

func sortClass() ClassSpec {
	return ClassSpec{Name: "S", Kind: query.ExternalSort, RelGroups: []int{0},
		ArrivalRate: 0.05, SlackRange: [2]float64{2.5, 7.5}}
}

func TestJoinQueryShape(t *testing.T) {
	g := newGen(t, []ClassSpec{joinClass()})
	for i := 0; i < 200; i++ {
		q := g.NewQuery(nil, 0, 100)
		if q.R.Pages > q.S.Pages {
			t.Fatal("inner relation larger than outer")
		}
		if q.MinMem >= q.MaxMem {
			t.Fatalf("min %d ≥ max %d", q.MinMem, q.MaxMem)
		}
		if q.SlackRatio < 2.5 || q.SlackRatio >= 7.5 {
			t.Fatalf("slack %g", q.SlackRatio)
		}
		wantDeadline := q.StandAlone*q.SlackRatio + q.Arrival
		if math.Abs(q.Deadline-wantDeadline) > 1e-9 {
			t.Fatal("deadline formula broken")
		}
		if q.ReadIOs != (q.R.Pages+5)/6+(q.S.Pages+5)/6 {
			t.Fatalf("ReadIOs %d", q.ReadIOs)
		}
	}
}

func TestAverageMaxDemandMatchesPaper(t *testing.T) {
	// §5.1: the average query requires ≈1321 buffer pages.
	g := newGen(t, []ClassSpec{joinClass()})
	var sum float64
	const n = 4000
	for i := 0; i < n; i++ {
		sum += float64(g.NewQuery(nil, 0, 0).MaxMem)
	}
	if avg := sum / n; avg < 1250 || avg > 1400 {
		t.Fatalf("average max demand %.0f, paper says ≈1321", avg)
	}
}

func TestJoinStandAloneAnchor(t *testing.T) {
	// Calibration anchor: the average baseline join (R 1200, S 6000)
	// executes alone in ≈32 s (implied by the paper's Table 7).
	g := newGen(t, []ClassSpec{joinClass()})
	sa := g.JoinStandAlone(1200, 6000)
	if sa < 27 || sa > 38 {
		t.Fatalf("join stand-alone %.1f s, want ≈32", sa)
	}
	// Sorts are much lighter: ≈6 s for 1200 pages.
	ss := g.SortStandAlone(1200)
	if ss < 4.5 || ss > 9 {
		t.Fatalf("sort stand-alone %.1f s, want ≈6", ss)
	}
	if g.JoinStandAlone(600, 3000) >= sa {
		t.Fatal("stand-alone not monotone in size")
	}
}

func TestSortQueryShape(t *testing.T) {
	g := newGen(t, []ClassSpec{sortClass()})
	q := g.NewQuery(nil, 0, 0)
	if q.S != nil {
		t.Fatal("sort has an outer relation")
	}
	if q.MinMem != 3 || q.MaxMem != q.R.Pages {
		t.Fatalf("memory needs %d/%d", q.MinMem, q.MaxMem)
	}
}

func TestInterArrivalMean(t *testing.T) {
	g := newGen(t, []ClassSpec{joinClass()})
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += g.InterArrival(0, 0.05)
	}
	if mean := sum / n; math.Abs(mean-20) > 0.5 {
		t.Fatalf("inter-arrival mean %.2f, want 20", mean)
	}
}

func TestGeneratorValidation(t *testing.T) {
	k := sim.NewKernel()
	dp := disk.DefaultParams()
	dp.NumDisks = 1
	m, err := disk.NewManager(k, dp, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Build(m, []catalog.GroupSpec{{RelPerDisk: 1, SizeRange: [2]int{100, 100}}}, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	badJoin := joinClass()
	badJoin.RelGroups = []int{0} // joins need two groups
	if _, err := NewGenerator(cat, dp, 40, DefaultParams(), []ClassSpec{badJoin}, 1); err == nil {
		t.Fatal("join class with one relation group accepted")
	}
	badGroup := sortClass()
	badGroup.RelGroups = []int{5} // out of range
	if _, err := NewGenerator(cat, dp, 40, DefaultParams(), []ClassSpec{badGroup}, 1); err == nil {
		t.Fatal("class referencing a missing group accepted")
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	g1 := newGen(t, []ClassSpec{joinClass()})
	q1 := g1.NewQuery(nil, 0, 0)
	g2 := newGen(t, []ClassSpec{joinClass()})
	q2 := g2.NewQuery(nil, 0, 0)
	// Same seed ⇒ identical first query.
	if q1.R.Pages != q2.R.Pages || q1.SlackRatio != q2.SlackRatio {
		t.Fatal("equal seeds should replay identically")
	}
}

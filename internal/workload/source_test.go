package workload

import (
	"fmt"
	"math"
	"testing"

	"pmm/internal/query"
	"pmm/internal/sim"
)

func popClass(pop int, perClient float64, mod Modulation) ClassSpec {
	return ClassSpec{Name: "P", Kind: query.HashJoin, RelGroups: []int{0, 1},
		ArrivalRate: perClient, SlackRange: [2]float64{2.5, 7.5},
		Population: pop, Modulation: mod}
}

// TestBatchedFixedRateIdentity is the superposition collapse made exact:
// a fixed-rate population of K clients draws its gaps from the class's
// classic inter-arrival stream at K·λ, so the batched source replays the
// classic single-source sequence bit for bit.
func TestBatchedFixedRateIdentity(t *testing.T) {
	const K, perClient = 250, 0.02
	agg := float64(K) * perClient
	batched := newGen(t, []ClassSpec{popClass(K, perClient, Modulation{})})
	classic := newGen(t, []ClassSpec{joinClass()})
	src := batched.Source(0)
	tb, tc := 0.0, 0.0
	for i := 0; i < 5000; i++ {
		tb = src.Next(tb)
		tc += classic.InterArrival(0, agg)
		if tb != tc {
			t.Fatalf("arrival %d: batched %v ≠ classic %v", i, tb, tc)
		}
	}
}

// TestBatchedSuperpositionStatistics checks the aggregation argument
// itself: the one-timer batched source and an explicitly simulated
// population of K independent Poisson clients produce statistically
// equivalent streams. Both counts are Poisson(K·λ·T); each must sit
// within 5σ of that mean and within 5σ·√2 of each other.
func TestBatchedSuperpositionStatistics(t *testing.T) {
	const (
		K         = 64
		perClient = 0.5
		T         = 625.0
	)
	g := newGen(t, []ClassSpec{popClass(K, perClient, Modulation{})})
	src := g.Source(0)
	nBatched := 0
	for at := src.Next(0); at < T; at = src.Next(at) {
		nBatched++
	}
	// The explicit population: K clients, each its own splitmix64 stream.
	nExplicit := 0
	for i := 0; i < K; i++ {
		r := sim.NewRand(9, uint64(10_000+i))
		for at := sim.Exp(r, 1/perClient); at < T; at += sim.Exp(r, 1/perClient) {
			nExplicit++
		}
	}
	mean := K * perClient * T
	sigma := math.Sqrt(mean)
	if d := math.Abs(float64(nBatched) - mean); d > 5*sigma {
		t.Fatalf("batched count %d vs mean %.0f: %.1fσ off", nBatched, mean, d/sigma)
	}
	if d := math.Abs(float64(nExplicit) - mean); d > 5*sigma {
		t.Fatalf("explicit count %d vs mean %.0f: %.1fσ off", nExplicit, mean, d/sigma)
	}
	if d := math.Abs(float64(nBatched - nExplicit)); d > 5*sigma*math.Sqrt2 {
		t.Fatalf("batched %d vs explicit %d differ by %.1fσ", nBatched, nExplicit, d/(sigma*math.Sqrt2))
	}
}

// TestDiurnalThinningTracksRate bins thinned arrivals by phase within
// the period and compares each bin against the integral of the sinusoid
// over it — the thinned process must follow rate(t), not just its mean.
func TestDiurnalThinningTracksRate(t *testing.T) {
	const (
		pop       = 1000
		perClient = 0.05 // aggregate 50/s
		period    = 100.0
		amp       = 0.7
		phase     = 13.0
		T         = 2000.0 // 20 periods, ≈100k arrivals
		bins      = 10
	)
	mod := Modulation{Kind: ModDiurnal, Period: period, Amplitude: amp, Phase: phase}
	g := newGen(t, []ClassSpec{popClass(pop, perClient, mod)})
	src := g.Source(0)

	base := float64(pop) * perClient
	var got [bins]float64
	for at := src.Next(0); at < T; at = src.Next(at) {
		u := math.Mod(at-phase, period)
		if u < 0 {
			u += period
		}
		got[int(u/(period/bins))]++
	}
	// ∫ base·(1+A·sin(2πu/P)) du over [a,b], times periods simulated.
	integral := func(a, b float64) float64 {
		w := 2 * math.Pi / period
		return base * ((b - a) - amp/w*(math.Cos(w*b)-math.Cos(w*a)))
	}
	for k := 0; k < bins; k++ {
		a, b := float64(k)*period/bins, float64(k+1)*period/bins
		want := (T / period) * integral(a, b)
		sigma := math.Sqrt(want)
		if d := math.Abs(got[k] - want); d > 5*sigma {
			t.Errorf("bin %d: %d arrivals, want %.0f (%.1fσ off)", k, int(got[k]), want, d/sigma)
		}
	}
}

// TestDiurnalEnvelopeMajorizes verifies the thinning precondition: every
// segment's precomputed envelope rate dominates rate(t) throughout the
// segment, for an off-grid phase offset.
func TestDiurnalEnvelopeMajorizes(t *testing.T) {
	mod := Modulation{Kind: ModDiurnal, Period: 7200, Amplitude: 0.95, Phase: 111.5}
	g := newGen(t, []ClassSpec{popClass(500, 0.001, mod)})
	src := g.Source(0)
	for k := 0; k < envSegments; k++ {
		for i := 0; i <= 50; i++ {
			u := (float64(k) + float64(i)/50) * src.segLen
			if r := src.Rate(mod.Phase + u); r > src.env[k]+1e-12 {
				t.Fatalf("segment %d: rate %.6f exceeds envelope %.6f at offset %.1f",
					k, r, src.env[k], u)
			}
		}
	}
}

// TestSourceConfigGuards: misconfigured populations and modulations are
// build-time errors, not silent mis-simulation.
func TestSourceConfigGuards(t *testing.T) {
	bad := []struct {
		name string
		spec ClassSpec
	}{
		{"negative rate", popClass(0, -0.1, Modulation{})},
		{"negative population", popClass(-3, 0.1, Modulation{})},
		{"population without rate", popClass(5, 0, Modulation{})},
		{"modulation without rate", popClass(0, 0, Modulation{Kind: ModDiurnal, Period: 100})},
		{"diurnal zero period", popClass(2, 0.1, Modulation{Kind: ModDiurnal})},
		{"diurnal amplitude 1", popClass(2, 0.1, Modulation{Kind: ModDiurnal, Period: 100, Amplitude: 1})},
		{"diurnal negative amplitude", popClass(2, 0.1, Modulation{Kind: ModDiurnal, Period: 100, Amplitude: -0.2})},
		{"retired kind 2", popClass(2, 0.1, Modulation{Kind: ModKind(2), Period: 100})},
		{"unknown kind", popClass(2, 0.1, Modulation{Kind: ModKind(99)})},
	}
	for _, tc := range bad {
		cl := joinClass()
		g := newGen(t, []ClassSpec{cl}) // valid generator for its catalog
		if _, err := NewGenerator(g.cat, g.dp, 40, DefaultParams(), []ClassSpec{tc.spec}, 9); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestInterArrivalRateGuard: a non-positive rate draw is a caller bug
// and must panic rather than park the source forever on a +Inf gap.
func TestInterArrivalRateGuard(t *testing.T) {
	g := newGen(t, []ClassSpec{joinClass()})
	for _, rate := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InterArrival at rate %g did not panic", rate)
				}
			}()
			g.InterArrival(0, rate)
		}()
	}
}

func TestCanonicalSpec(t *testing.T) {
	one := popClass(1, 0.1, Modulation{Period: 99, Amplitude: 0.7}) // stray params, kind none
	if got := one.CanonicalSpec(); got.Population != 0 || got.Modulation != (Modulation{}) {
		t.Fatalf("population 1 + stray modulation params canonicalize to pop %d mod %+v",
			got.Population, got.Modulation)
	}
	d := popClass(4, 0.1, Modulation{Kind: ModDiurnal, Period: 100, Amplitude: 0.5, Phase: 3})
	if got := d.CanonicalSpec().Modulation; got != d.Modulation {
		t.Fatalf("diurnal canonical modulation %+v", got)
	}
	if !d.Batched() || popClass(0, 0.1, Modulation{}).Batched() {
		t.Fatal("Batched() misclassifies")
	}
}

// BenchmarkMillionClientArrivals is the count-batching proof: advancing
// a diurnally modulated population costs the same per arrival at 10⁶
// clients as at 10³ (and allocates nothing), because N enters only as a
// factor in the aggregate rate.
func BenchmarkMillionClientArrivals(b *testing.B) {
	for _, n := range []int{1_000, 1_000_000} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			mod := Modulation{Kind: ModDiurnal, Period: 7200, Amplitude: 0.6}
			g := newGen(b, []ClassSpec{popClass(n, 2.4/float64(n), mod)})
			src := g.Source(0)
			b.ReportAllocs()
			b.ResetTimer()
			at := 0.0
			for i := 0; i < b.N; i++ {
				at = src.Next(at)
			}
			benchSink = at
		})
	}
}

var benchSink float64

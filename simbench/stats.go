package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles is the ladder the tail helper climbs.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailMinBeyond = 10

// tail is the highest percentile of a sample set that has at least
// tailMinBeyond samples beyond it.
type tail struct {
	Value      float64
	Percentile float64
	N          int // samples
	Beyond     int // samples strictly above the percentile's rank
	// Short is set when no percentile of the ladder had enough samples
	// beyond it; Value is then the median.
	Short bool
}

// String names the percentile and the counts behind it.
func (t tail) String() string {
	s := fmt.Sprintf("p%g of %d samples, %d beyond", t.Percentile, t.N, t.Beyond)
	if t.Short {
		s += fmt.Sprintf("; fewer than %d beyond any percentile, so the median is given", tailMinBeyond)
	}
	return s
}

// tailOf applies the rule: climb the percentile ladder while at least
// tailMinBeyond samples lie above the percentile's rank. The samples
// beyond percentile p are those ranked above ⌈p/100·n⌉ in sorted order.
func tailOf(xs []float64) tail {
	n := len(xs)
	s := slices.Clone(xs)
	slices.Sort(s)
	best := tail{N: n, Short: true, Percentile: 50}
	if n > 0 {
		best.Value = quantile(s, 0.5)
		best.Beyond = n - rankOf(50, n)
	}
	for _, p := range tailPercentiles {
		r := rankOf(p, n)
		if n-r < tailMinBeyond {
			break
		}
		best = tail{Value: s[r-1], Percentile: p, N: n, Beyond: n - r}
	}
	return best
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps p·n/100 products like 99.9·10000 from rounding
	// up past an exact rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(r, 1)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload did not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printSpread prints the quartiles of a run's samples of one metric.
func printSpread(env *runEnv, name string, xs []float64) {
	fmt.Fprintf(env.stdout, "samples %s n=%d q1=%.6g median=%.6g q3=%.6g\n",
		name, len(xs), quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
}

package workload

import (
	"math"

	"pmm/internal/sim"
)

// envSegments is the diurnal-envelope resolution: segments per period of
// the piecewise-constant majorant the thinning loop draws against. More
// segments tighten the envelope (fewer rejected candidates) at the cost
// of more boundary re-draws; 16 keeps the acceptance ratio above
// 1/(1+2A·π/16) ≈ 0.9 for any legal amplitude.
const envSegments = 16

// ArrivalSource generates the aggregate arrival stream of one class as
// a single sequence of admitted arrival times — the count-batched
// representation of a client population. A population of N homogeneous
// Poisson clients at per-client rate λ is, by superposition, one
// Poisson process at N·λ, so the source needs one pending timer
// regardless of N. Time-varying rates are exact:
//
//   - ModDiurnal samples the non-homogeneous process by Lewis–Shedler
//     thinning against a precomputed piecewise-constant envelope: gaps
//     are drawn at the segment's envelope rate and each candidate is
//     accepted with probability rate(t)/envelope, which yields the
//     target rate function exactly.
//
// All candidate and rejection handling happens inside Next, so the
// kernel schedules exactly one timer per admitted arrival. Next
// allocates nothing after construction.
type ArrivalSource struct {
	g     *Generator
	class int
	mod   Modulation
	base  float64 // aggregate rate: max(Population,1) · ArrivalRate

	// Diurnal state: the envelope rate per segment and the segment
	// length, fixed at construction.
	env    []float64
	segLen float64
}

// Source builds the aggregated arrival source for one class. The gap
// stream is the class's classic inter-arrival stream, so a fixed-rate
// population-N source replays bit-identically to a single classic
// source at N·λ; thinning acceptance uses its own stream and is never
// drawn for simple classes.
func (g *Generator) Source(class int) *ArrivalSource {
	cl := g.classes[class]
	n := cl.Population
	if n < 1 {
		n = 1
	}
	s := &ArrivalSource{
		g:     g,
		class: class,
		mod:   cl.Modulation,
		base:  float64(n) * cl.ArrivalRate,
	}
	if cl.Modulation.Kind == ModDiurnal {
		s.segLen = cl.Modulation.Period / envSegments
		s.env = make([]float64, envSegments)
		for k := range s.env {
			a := 2 * math.Pi * float64(k) / envSegments
			b := 2 * math.Pi * float64(k+1) / envSegments
			s.env[k] = s.base * (1 + cl.Modulation.Amplitude*maxSin(a, b))
		}
	}
	return s
}

// Rate returns the aggregate arrival rate at time t.
func (s *ArrivalSource) Rate(t float64) float64 {
	if s.mod.Kind == ModDiurnal {
		return s.base * (1 + s.mod.Amplitude*math.Sin(2*math.Pi*(t-s.mod.Phase)/s.mod.Period))
	}
	return s.base
}

// Next returns the absolute time of the next admitted arrival after
// now. Calls must pass non-decreasing times (the driving source process
// holds until exactly the returned time).
func (s *ArrivalSource) Next(now float64) float64 {
	if s.mod.Kind == ModDiurnal {
		return s.nextDiurnal(now)
	}
	return now + s.g.InterArrival(s.class, s.base)
}

// nextDiurnal thins candidate arrivals drawn at the segment envelope
// rate. Crossing into the next segment discards the candidate and
// re-draws at the new envelope — valid because exponentials are
// memoryless — so the envelope used always majorizes the rate at t.
func (s *ArrivalSource) nextDiurnal(now float64) float64 {
	t := now
	for {
		u := math.Mod(t-s.mod.Phase, s.mod.Period)
		if u < 0 {
			u += s.mod.Period
		}
		k := int(u / s.segLen)
		if k >= envSegments {
			k = envSegments - 1 // u == Period after rounding
		}
		segEnd := t + (s.segLen*float64(k+1) - u)
		env := s.env[k]
		gap := s.g.InterArrival(s.class, env)
		if t+gap >= segEnd {
			t = segEnd
			continue
		}
		t += gap
		if sim.Uniform(s.g.thin[s.class], 0, 1)*env < s.Rate(t) {
			return t
		}
	}
}

// maxSin returns the maximum of sin over the angle interval [a, b]
// (0 ≤ a < b ≤ 2π): 1 if the interval contains π/2, else the larger
// endpoint value.
func maxSin(a, b float64) float64 {
	if a <= math.Pi/2 && b >= math.Pi/2 {
		return 1
	}
	return math.Max(math.Sin(a), math.Sin(b))
}

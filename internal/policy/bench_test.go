package policy_test

import (
	"testing"

	"pmm/internal/core"
	"pmm/internal/policy"
	"pmm/internal/query"
)

// idleProbe is a Probe for allocators measured outside a running system.
type idleProbe struct{}

func (idleProbe) Now() float64             { return 0 }
func (idleProbe) MaxResourceUtil() float64 { return 0 }
func (idleProbe) AvgMPL() float64          { return 0 }
func (idleProbe) ResetWindow()             {}

// grantsSink keeps the benchmarked calls from being optimized away.
var grantsSink []int

// BenchmarkAllocate measures one replan of every allocator the
// controller runs over a 64-query present list, reusing one Scratch
// across calls as the controller does. Each must report 0 allocs/op:
// the allocator runs on every arrival and departure.
func BenchmarkAllocate(b *testing.B) {
	present := make([]*query.Query, 64)
	for i := range present {
		min := 20 + i%7*10
		present[i] = &query.Query{
			ID: int64(i + 1), Class: i % 2, Arrival: 0, Deadline: float64(10 + i),
			MinMem: min, MaxMem: min * (5 + i%4),
		}
	}
	fair := core.FairnessConfig{Weights: []float64{1, 2}}
	allocs := []policy.Allocator{
		policy.Max{},
		policy.MinMaxN{},
		policy.MinMaxN{N: 10},
		policy.ProportionalN{},
		policy.ProportionalN{N: 10},
		core.New(core.Config{}, idleProbe{}),
		core.NewFair(core.Config{}, fair, 2, idleProbe{}),
	}
	for _, a := range allocs {
		b.Run(a.Name(), func(b *testing.B) {
			var s policy.Scratch
			a.Allocate(present, 2560, &s) // grow the scratch once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grantsSink = a.Allocate(present, 2560, &s)
			}
		})
	}
}

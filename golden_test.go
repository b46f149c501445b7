package pmm_test

import (
	"fmt"
	"testing"

	"pmm"
)

// TestGoldenKernelDigests pins a digest of one shortened BaselineConfig
// run per policy at a fixed seed. The constants were captured on the
// pre-refactor (container/heap, eager-cancel) kernel; the zero-allocation
// kernel must reproduce every run bit for bit — the determinism contract
// is (time, then scheduling sequence) event ordering, so any reordering,
// lost cancel, or double wake shows up here as a digest mismatch.
func TestGoldenKernelDigests(t *testing.T) {
	golden := []struct {
		name                               string
		pol                                pmm.PolicyConfig
		steps                              uint64
		arrived, completed, missed, events int
		missRatio                          string
	}{
		{"Max", pmm.PolicyConfig{Kind: pmm.PolicyMax}, 474239, 93, 52, 35, 87, "0.402298850575"},
		{"MinMax", pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 1072378, 93, 41, 44, 85, "0.517647058824"},
		{"MinMax-10", pmm.PolicyConfig{Kind: pmm.PolicyMinMax, MPLLimit: 10}, 1059420, 93, 41, 44, 85, "0.517647058824"},
		{"Proportional", pmm.PolicyConfig{Kind: pmm.PolicyProportional}, 1091526, 93, 44, 40, 84, "0.476190476190"},
		{"PMM", pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 540505, 93, 44, 43, 87, "0.494252873563"},
		{"FairPMM", pmm.PolicyConfig{Kind: pmm.PolicyFairPMM}, 540505, 93, 44, 43, 87, "0.494252873563"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := pmm.BaselineConfig()
			cfg.Seed = 42
			cfg.Duration = 1500
			cfg.Classes[0].ArrivalRate = 0.06
			cfg.Policy = g.pol
			sys, err := pmm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := sys.Run()
			if got := sys.Kernel().Steps(); got != g.steps {
				t.Errorf("kernel steps = %d, want %d", got, g.steps)
			}
			if r.Arrived != g.arrived {
				t.Errorf("arrived = %d, want %d", r.Arrived, g.arrived)
			}
			if r.Completed != g.completed {
				t.Errorf("completed = %d, want %d", r.Completed, g.completed)
			}
			if r.Missed != g.missed {
				t.Errorf("missed = %d, want %d", r.Missed, g.missed)
			}
			if got := len(r.Events); got != g.events {
				t.Errorf("termination events = %d, want %d", got, g.events)
			}
			if got := fmt.Sprintf("%.12f", r.MissRatio); got != g.missRatio {
				t.Errorf("miss ratio = %s, want %s", got, g.missRatio)
			}
		})
	}
}

// TestGoldenTimerCancelDigests pins the digest contract for a
// timer-cancel-heavy workload: the baseline class overloaded to 2.5× its
// nominal rate (so most queries blow their firm deadlines and are
// Interrupted mid-hold, each abort cancelling the pending hold timer)
// with deadline-driven pacing enabled (every pacing park arms an urgency
// timer that is Stopped when the park ends). The run is dominated by
// Timer.Stop tombstones surfacing in the event queue, so it pins the
// kernel's lazy-cancellation skipping specifically — a queue-structure
// change must reproduce the exact live-event order through dense
// tombstone traffic, not just through clean schedules. Constants
// captured on the 4-ary-heap kernel before the timing-wheel refactor.
func TestGoldenTimerCancelDigests(t *testing.T) {
	golden := []struct {
		name                               string
		pol                                pmm.PolicyConfig
		steps                              uint64
		arrived, completed, missed, events int
		missRatio                          string
	}{
		{"Max", pmm.PolicyConfig{Kind: pmm.PolicyMax}, 570535, 151, 35, 103, 138, "0.746376811594"},
		{"MinMax", pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 1187686, 151, 15, 122, 137, "0.890510948905"},
		{"PMM", pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 744077, 151, 29, 108, 137, "0.788321167883"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := pmm.BaselineConfig()
			cfg.Seed = 42
			cfg.Duration = 1500
			cfg.Classes[0].ArrivalRate = 0.10
			cfg.PaceFactor = 1
			cfg.Policy = g.pol
			sys, err := pmm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := sys.Run()
			if got := sys.Kernel().Steps(); got != g.steps {
				t.Errorf("kernel steps = %d, want %d", got, g.steps)
			}
			if r.Arrived != g.arrived {
				t.Errorf("arrived = %d, want %d", r.Arrived, g.arrived)
			}
			if r.Completed != g.completed {
				t.Errorf("completed = %d, want %d", r.Completed, g.completed)
			}
			if r.Missed != g.missed {
				t.Errorf("missed = %d, want %d", r.Missed, g.missed)
			}
			if got := len(r.Events); got != g.events {
				t.Errorf("termination events = %d, want %d", got, g.events)
			}
			if got := fmt.Sprintf("%.12f", r.MissRatio); got != g.missRatio {
				t.Errorf("miss ratio = %s, want %s", got, g.missRatio)
			}
		})
	}
}

// TestGoldenDeepFrameDigests pins the digest contract for the deepest
// inline frame stacks the simulator builds: PPHJ joins and external
// sorts running side by side under heavy memory pressure (M cut to 800
// pages) with deadline-driven pacing enabled. Squeezed allocations force
// the join through partition spooling, adaptation and read-back and the
// sort through multi-step merging with mid-merge splits, so every
// operator frame (build/probe/flush/adapt/expand/read-back,
// formation/emit/merge) plus the pacing and memory-wait leaf frames
// appear on the stack together. A dispatch or frame-machinery change
// must reproduce this order exactly, not just the shallow steady-state
// paths. Constants captured on the closure-dispatch kernel before the
// typed-payload refactor.
func TestGoldenDeepFrameDigests(t *testing.T) {
	golden := []struct {
		name                               string
		pol                                pmm.PolicyConfig
		steps                              uint64
		arrived, completed, missed, events int
		missRatio                          string
	}{
		{"Max", pmm.PolicyConfig{Kind: pmm.PolicyMax}, 114330, 154, 32, 112, 144, "0.777777777778"},
		{"MinMax", pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 916686, 154, 22, 121, 143, "0.846153846154"},
		{"PMM", pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 503759, 154, 34, 109, 143, "0.762237762238"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := pmm.BaselineConfig()
			cfg.Seed = 42
			cfg.Duration = 1500
			cfg.MemoryPages = 800
			cfg.PaceFactor = 1
			cfg.Classes[0].ArrivalRate = 0.05
			cfg.Classes = append(cfg.Classes, pmm.ClassSpec{
				Name:        "Sort",
				Kind:        pmm.ExternalSort,
				RelGroups:   []int{0},
				ArrivalRate: 0.05,
				SlackRange:  [2]float64{2.5, 7.5},
			})
			cfg.Policy = g.pol
			sys, err := pmm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := sys.Run()
			if got := sys.Kernel().Steps(); got != g.steps {
				t.Errorf("kernel steps = %d, want %d", got, g.steps)
			}
			if r.Arrived != g.arrived {
				t.Errorf("arrived = %d, want %d", r.Arrived, g.arrived)
			}
			if r.Completed != g.completed {
				t.Errorf("completed = %d, want %d", r.Completed, g.completed)
			}
			if r.Missed != g.missed {
				t.Errorf("missed = %d, want %d", r.Missed, g.missed)
			}
			if got := len(r.Events); got != g.events {
				t.Errorf("termination events = %d, want %d", got, g.events)
			}
			if got := fmt.Sprintf("%.12f", r.MissRatio); got != g.missRatio {
				t.Errorf("miss ratio = %s, want %s", got, g.missRatio)
			}
		})
	}
}

// TestGoldenPhaseShiftDigests pins the same digest contract for a
// phase-shifting (dynamic arrival-rate) workload: three cycling phases
// that ramp the class rate down, up, and off. The source processes drive
// every phase boundary with their own re-draw holds, so this digest pins
// the source-loop scheduling behaviour specifically — a migration of the
// Poisson sources to a different process representation must reproduce
// the exact hold/re-draw event sequence, not just static steady state.
// Constants captured on the goroutine-proc kernel before the inline
// scheduler landed.
func TestGoldenPhaseShiftDigests(t *testing.T) {
	golden := []struct {
		name                               string
		pol                                pmm.PolicyConfig
		steps                              uint64
		arrived, completed, missed, events int
		missRatio                          string
	}{
		{"Max", pmm.PolicyConfig{Kind: pmm.PolicyMax}, 411562, 76, 41, 20, 61, "0.327868852459"},
		{"PMM", pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 576887, 76, 38, 21, 59, "0.355932203390"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := pmm.BaselineConfig()
			cfg.Seed = 42
			cfg.Duration = 1500
			cfg.Classes[0].ArrivalRate = 0.06
			cfg.Phases = []pmm.Phase{
				{Duration: 400, Rates: []float64{0.03}},
				{Duration: 300, Rates: []float64{0.10}},
				{Duration: 200, Rates: []float64{0}},
			}
			cfg.Policy = g.pol
			sys, err := pmm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := sys.Run()
			if got := sys.Kernel().Steps(); got != g.steps {
				t.Errorf("kernel steps = %d, want %d", got, g.steps)
			}
			if r.Arrived != g.arrived {
				t.Errorf("arrived = %d, want %d", r.Arrived, g.arrived)
			}
			if r.Completed != g.completed {
				t.Errorf("completed = %d, want %d", r.Completed, g.completed)
			}
			if r.Missed != g.missed {
				t.Errorf("missed = %d, want %d", r.Missed, g.missed)
			}
			if got := len(r.Events); got != g.events {
				t.Errorf("termination events = %d, want %d", got, g.events)
			}
			if got := fmt.Sprintf("%.12f", r.MissRatio); got != g.missRatio {
				t.Errorf("miss ratio = %s, want %s", got, g.missRatio)
			}
		})
	}
}

// TestGoldenOverloadDigests pins the digest contract for the
// count-batched modulated-arrival path: the overload preset (a diurnal
// 100k-client population behind a bounded admission queue) shortened to
// 1500 s at a fixed seed. The run exercises the thinning loop, the
// batched source frame, and the admission gate together, so a change to
// envelope construction, acceptance draws, stream layout, or rejection
// handling shows up here as a digest mismatch and must be intentional.
func TestGoldenOverloadDigests(t *testing.T) {
	golden := []struct {
		name                                         string
		pol                                          pmm.PolicyConfig
		steps                                        uint64
		arrived, rejected, completed, missed, events int
		missRatio, lossRatio                         string
	}{
		{"Max", pmm.PolicyConfig{Kind: pmm.PolicyMax}, 1873832, 4807, 692, 2011, 2068, 4079, "0.506987006619", "0.143956729769"},
		{"MinMax", pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 1840827, 4807, 0, 1299, 3470, 4769, "0.727615852380", "0.000000000000"},
		{"PMM", pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 1873832, 4807, 692, 2011, 2068, 4079, "0.506987006619", "0.143956729769"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := pmm.OverloadConfig(100_000)
			cfg.Seed = 42
			cfg.Duration = 1500
			cfg.Policy = g.pol
			sys, err := pmm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := sys.Run()
			if got := sys.Kernel().Steps(); got != g.steps {
				t.Errorf("kernel steps = %d, want %d", got, g.steps)
			}
			if r.Arrived != g.arrived {
				t.Errorf("arrived = %d, want %d", r.Arrived, g.arrived)
			}
			if r.Rejected != g.rejected {
				t.Errorf("rejected = %d, want %d", r.Rejected, g.rejected)
			}
			if r.Completed != g.completed {
				t.Errorf("completed = %d, want %d", r.Completed, g.completed)
			}
			if r.Missed != g.missed {
				t.Errorf("missed = %d, want %d", r.Missed, g.missed)
			}
			if got := len(r.Events); got != g.events {
				t.Errorf("termination events = %d, want %d", got, g.events)
			}
			if got := fmt.Sprintf("%.12f", r.MissRatio); got != g.missRatio {
				t.Errorf("miss ratio = %s, want %s", got, g.missRatio)
			}
			if got := fmt.Sprintf("%.12f", r.LossRatio); got != g.lossRatio {
				t.Errorf("loss ratio = %s, want %s", got, g.lossRatio)
			}
		})
	}
}

package cpu

import (
	"math"
	"testing"

	"pmm/internal/sim"
)

func TestSecondsConversion(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, 40)
	if got := c.Seconds(40e6); math.Abs(got-1) > 1e-12 {
		t.Fatalf("40M instructions at 40 MIPS = %g s, want 1", got)
	}
	if c.MIPS() != 40 {
		t.Fatalf("MIPS = %g", c.MIPS())
	}
}

// spawnRun spawns a process that runs one CPU burst of instructions at
// prio and then calls done, if set, with the burst's outcome.
func spawnRun(k *sim.Kernel, c *CPU, name string, prio, instructions float64, done func(p *sim.Proc, ok bool)) *sim.Proc {
	var p *sim.Proc
	finish := func(m *sim.Machine, ok bool) sim.Status {
		if done != nil {
			done(p, ok)
		}
		return m.Return(ok)
	}
	p = k.Spawn(name, &sim.Script{Stages: []func(*sim.Machine, bool) sim.Status{
		func(m *sim.Machine, _ bool) sim.Status {
			entered, ok := c.StartRun(p, prio, instructions)
			if entered {
				return sim.Park
			}
			return finish(m, ok)
		},
		finish,
	}})
	return p
}

func TestRunConsumesTime(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, 40)
	var done float64
	spawnRun(k, c, "worker", 1, 80e6, func(p *sim.Proc, ok bool) {
		if !ok {
			t.Error("unexpected interrupt")
		}
		done = p.Now()
	})
	k.Drain()
	if math.Abs(done-2) > 1e-9 {
		t.Fatalf("80M instructions finished at %g, want 2", done)
	}
	if got := c.Meter().BusyTime(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("busy time %g", got)
	}
}

func TestZeroInstructionsFree(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, 40)
	ran := false
	spawnRun(k, c, "worker", 1, 0, func(p *sim.Proc, ok bool) {
		ran = true
		if !ok {
			t.Error("zero-cost run failed")
		}
		if p.Now() != 0 {
			t.Errorf("zero instructions took %g s", p.Now())
		}
	})
	k.Drain()
	if !ran {
		t.Fatal("zero-cost run never finished")
	}
	if k.Steps() != 1 {
		t.Fatalf("zero-cost run took %d kernel steps, want 1 (no wait)", k.Steps())
	}
}

func TestEDOrderOnCPU(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, 1)
	var order []string
	spawnRun(k, c, "first", 0, 5e6, nil)
	k.At(1, func() {
		spawnRun(k, c, "late-deadline", 100, 1e6, func(*sim.Proc, bool) { order = append(order, "late") })
		spawnRun(k, c, "early-deadline", 10, 1e6, func(*sim.Proc, bool) { order = append(order, "early") })
	})
	k.Drain()
	if len(order) != 2 || order[0] != "early" {
		t.Fatalf("ED order violated: %v", order)
	}
}

func TestNegativeInstructionsPanics(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, 40)
	spawnRun(k, c, "worker", 1, -5, nil)
	defer func() {
		if recover() == nil {
			t.Error("negative instruction count did not panic")
		}
	}()
	k.Drain()
}

func TestCostTableValues(t *testing.T) {
	// The Table 4 constants are load-bearing for calibration; pin them.
	if CostStartIO != 1000 || CostInitQuery != 40000 || CostTermQuery != 10000 {
		t.Fatal("common operation costs drifted from Table 4")
	}
	if CostHashBuild != 100 || CostHashProbe != 200 || CostHashCopy != 100 {
		t.Fatal("hash join costs drifted from Table 4")
	}
	if CostSortCopy != 64 || CostCompare != 50 {
		t.Fatal("sort costs drifted from Table 4")
	}
}

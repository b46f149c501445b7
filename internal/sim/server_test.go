package sim

import (
	"math"
	"testing"
)

// spawnUse spawns a process that uses s once for service seconds at
// prio, then calls done, if set, with the outcome.
func spawnUse(k *Kernel, s *Server, name string, prio, service float64, done func(p *Proc, ok bool)) *Proc {
	return spawnBody(k, name,
		func(p *Proc, _ bool) bool { return s.StartUse(p, prio, service) },
		func(p *Proc, ok bool) bool {
			if done != nil {
				done(p, ok)
			}
			return false
		})
}

// spawnWait spawns a process that queues once at g with the given
// priority and payloads, then calls done, if set, with the outcome.
func spawnWait(k *Kernel, g *Gate, name string, prio float64, data any, val float64, done func(p *Proc, ok bool)) *Proc {
	return spawnBody(k, name,
		func(p *Proc, _ bool) bool { return g.Enqueue(p, prio, data, val) },
		func(p *Proc, ok bool) bool {
			if done != nil {
				done(p, ok)
			}
			return false
		})
}

func TestServerSerialService(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	var done []float64
	for i := 0; i < 3; i++ {
		spawnUse(k, s, "user", 0, 2, func(p *Proc, _ bool) { done = append(done, p.Now()) })
	}
	k.Drain()
	want := []float64{2, 4, 6}
	if len(done) != len(want) {
		t.Fatalf("completions %v, want %v", done, want)
	}
	for i := range want {
		if math.Abs(done[i]-want[i]) > 1e-12 {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
	if got := s.Meter().BusyTime(); math.Abs(got-6) > 1e-12 {
		t.Fatalf("busy time %g, want 6", got)
	}
}

func TestServerPriorityOrder(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	var order []string
	mark := func(name string) func(*Proc, bool) {
		return func(*Proc, bool) { order = append(order, name) }
	}
	// Occupy the server first so the others queue.
	spawnUse(k, s, "first", 5, 10, mark("first"))
	k.At(1, func() {
		spawnUse(k, s, "low", 9, 1, mark("low"))
		spawnUse(k, s, "high", 1, 1, mark("high"))
	})
	k.Drain()
	if len(order) != 3 || order[0] != "first" || order[1] != "high" || order[2] != "low" {
		t.Fatalf("service order %v, want [first high low]", order)
	}
}

func TestServerFIFOAmongEqualPriority(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	var order []int
	spawnUse(k, s, "occupier", 0, 5, nil)
	k.At(1, func() {
		for i := 0; i < 4; i++ {
			spawnUse(k, s, "eq", 7, 1, func(*Proc, bool) { order = append(order, i) })
		}
	})
	k.Drain()
	if len(order) != 4 {
		t.Fatalf("equal-priority order %v, want 4 completions", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-priority order %v, want FIFO", order)
		}
	}
}

func TestServerInterruptWhileQueued(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	spawnUse(k, s, "occupier", 0, 100, nil)
	var gotOK *bool
	victim := spawnUse(k, s, "victim", 1, 10, func(_ *Proc, ok bool) { gotOK = &ok })
	k.At(5, func() { victim.Interrupt() })
	k.Run(20)
	if gotOK == nil {
		t.Fatal("victim still blocked after interrupt")
	}
	if *gotOK {
		t.Fatal("queued request should report interruption")
	}
	if k.Now() != 20 {
		t.Fatalf("now = %g", k.Now())
	}
}

func TestServerInterruptDuringServiceCompletesFirst(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	var finishedAt float64
	ok := true
	victim := spawnUse(k, s, "victim", 0, 10, func(p *Proc, got bool) {
		ok = got
		finishedAt = p.Now()
	})
	k.At(3, func() { victim.Interrupt() })
	k.Drain()
	if ok {
		t.Fatal("interrupted service must report false")
	}
	if finishedAt != 10 {
		t.Fatalf("service should complete before interrupt reported; finished at %g", finishedAt)
	}
}

func TestServerUtilizationWindow(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	spawnUse(k, s, "u", 0, 4, nil)
	k.Run(8)
	if got := s.Meter().Utilization(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization %g, want 0.5", got)
	}
	// Window starting at t=8 with a 2-second service in [8,10], to 12.
	start, busy0 := k.Now(), s.Meter().BusyTime()
	spawnUse(k, s, "u2", 0, 2, nil)
	k.Run(12)
	if got := s.Meter().Utilization(start, busy0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("windowed utilization %g, want 0.5", got)
	}
}

func TestGateReleaseSpecificWaiter(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "adm")
	var admitted []int
	for i := 0; i < 3; i++ {
		spawnWait(k, g, "w", float64(i), i, 0, func(_ *Proc, ok bool) {
			if ok {
				admitted = append(admitted, i)
			}
		})
	}
	release := func(data int) {
		for w := g.First(); w != nil; w = w.Next() {
			if w.Data.(int) == data {
				g.Release(w)
				return
			}
		}
	}
	k.At(1, func() {
		// Admit waiter with Data==1 first, then 0, leave 2 waiting.
		release(1)
		release(0)
	})
	k.Run(10)
	if len(admitted) != 2 || admitted[0] != 1 || admitted[1] != 0 {
		t.Fatalf("admissions %v, want [1 0]", admitted)
	}
	if g.Len() != 1 {
		t.Fatalf("gate should still hold one waiter, has %d", g.Len())
	}
}

func TestGateInterruptRemovesWaiter(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "adm")
	p := spawnWait(k, g, "w", 0, nil, 0, func(_ *Proc, ok bool) {
		if ok {
			t.Error("wait should report interruption")
		}
	})
	k.At(1, func() { p.Interrupt() })
	k.Run(5)
	if g.Len() != 0 {
		t.Fatalf("interrupted waiter not removed; len=%d", g.Len())
	}
	if !p.Dead() {
		t.Fatal("interrupted waiter never resumed")
	}
}

func TestGateStaleHandleIgnored(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "adm")
	p := spawnWait(k, g, "w", 0, nil, 0, nil)
	var handle *Waiting
	k.At(1, func() {
		handle = g.First()
		p.Interrupt() // removes the entry
	})
	k.At(2, func() {
		if g.Release(handle) {
			t.Error("stale release should report false")
		}
	})
	k.Run(5)
}

func TestGateIterationArrivalOrder(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "adm")
	for i := 0; i < 4; i++ {
		spawnWait(k, g, "w", 0, nil, float64(i), nil)
	}
	k.At(1, func() {
		var got []float64
		for w := g.First(); w != nil; w = w.Next() {
			got = append(got, w.Val)
		}
		for i, v := range got {
			if v != float64(i) {
				t.Errorf("iteration order %v, want arrival order", got)
				break
			}
		}
		if len(got) != 4 {
			t.Errorf("iterated %d waiters, want 4", len(got))
		}
		// Removing from the middle must keep the chain intact.
		g.Release(g.First().Next())
		got = got[:0]
		for w := g.First(); w != nil; w = w.Next() {
			got = append(got, w.Val)
		}
		if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
			t.Errorf("after mid-release iteration %v, want [0 2 3]", got)
		}
	})
	k.Drain()
}

func TestGateEntryRecycledAcrossWaits(t *testing.T) {
	// A process's embedded wait entry is reused wait after wait; each
	// re-queue must present fresh seq/payload and wire into the list.
	k := NewKernel()
	g := NewGate(k, "adm")
	var rounds int
	next := func(p *Proc, ok bool) bool {
		if !ok {
			return false
		}
		rounds++
		return rounds < 3 && g.Enqueue(p, float64(rounds), rounds, 0)
	}
	spawnBody(k, "w",
		func(p *Proc, _ bool) bool { return g.Enqueue(p, 0, 0, 0) },
		next, next, next)
	var seqs []uint64
	release := func() {
		w := g.First()
		if w == nil {
			t.Error("no waiter queued")
			return
		}
		if w.Data.(int) != rounds {
			t.Errorf("payload %v, want %d", w.Data, rounds)
		}
		seqs = append(seqs, w.Seq())
		g.Release(w)
	}
	k.At(1, release)
	k.At(2, release)
	k.At(3, release)
	k.Drain()
	if rounds != 3 {
		t.Fatalf("completed %d waits, want 3", rounds)
	}
	if len(seqs) != 3 || !(seqs[0] < seqs[1] && seqs[1] < seqs[2]) {
		t.Fatalf("arrival seqs %v, want strictly increasing", seqs)
	}
}

func TestGateServiceSection(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "disk")
	ok := true
	var at float64
	p := spawnWait(k, g, "w", 0, nil, 0, func(p *Proc, got bool) {
		ok = got
		at = p.Now()
	})
	k.At(1, func() {
		w := g.First()
		g.BeginService(w)
		k.At(9, func() { g.EndService(w) })
	})
	// Interrupt mid-service: must defer to completion.
	k.At(5, func() { p.Interrupt() })
	k.Drain()
	if ok {
		t.Fatal("deferred interrupt not reported")
	}
	if at != 10 {
		t.Fatalf("service should complete at 10, resumed at %g", at)
	}
}

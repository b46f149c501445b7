package sim

import (
	"bytes"
	"strings"
	"testing"

	"pmm/internal/trace"
)

// spawnHolder spawns a process that holds for dt and exits.
func spawnHolder(k *Kernel, name string, dt float64) *Proc {
	var p *Proc
	p = k.Spawn(name, &Script{Stages: []func(*Machine, bool) Status{
		func(m *Machine, ok bool) Status {
			if p.StartHold(dt) {
				return Park
			}
			return m.Return(false)
		},
	}})
	return p
}

// nopCompleter is a completer id for service waits ended by hand.
type nopCompleter struct{}

func (nopCompleter) Complete(bool) {}

// TestReleasedTaskIgnoresLateEvents pins the dead-sentinel contract:
// deadline interrupts and a service end addressed to a released process
// fire as no-ops, and never reach the process that reuses its record —
// even when that process sits in exactly the kind of wait each event
// would end.
func TestReleasedTaskIgnoresLateEvents(t *testing.T) {
	k := NewKernelIn(NewArena())
	comp := k.RegisterCompleter(nopCompleter{})
	old := spawnHolder(k, "old", 1)
	k.AtInterrupt(5, old)
	k.AtInterrupt(6, old)
	k.Run(2)
	if !old.Dead() {
		t.Fatal("holder still alive at t=2")
	}
	oldID := old.ID()
	k.Release(old)

	type resume struct {
		at float64
		ok bool
	}
	var got []resume
	var p *Proc
	p = k.Spawn("new", &Script{Stages: []func(*Machine, bool) Status{
		func(m *Machine, ok bool) Status {
			if p.StartHold(8) { // t=10: the reuser's own wake
				return Park
			}
			return m.Return(false)
		},
		func(m *Machine, ok bool) Status {
			got = append(got, resume{p.Now(), ok})
			if p.StartService(comp) {
				return Park
			}
			return m.Return(false)
		},
		func(m *Machine, ok bool) Status {
			got = append(got, resume{p.Now(), ok})
			return m.Return(ok)
		},
	}})
	if p != old {
		t.Fatal("spawn after Release did not reuse the released record")
	}
	if p.ID() == oldID {
		t.Fatalf("reused record kept task id %d", oldID)
	}
	k.At(9, func() { k.EndService(oldID, comp) })
	k.At(10, func() { k.EndService(p.ID(), comp) })
	k.Drain()

	want := []resume{{10, true}, {12, true}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("reuser resumed %v, want %v (late events leaked through the released id)", got, want)
	}
	if !p.Dead() || k.LiveProcs() != 0 {
		t.Fatalf("reuser dead=%v, live procs %d", p.Dead(), k.LiveProcs())
	}
}

// TestReleasedRecordGetsFreshTraceName pins that a reused record is a
// new task to a trace: it registers a fresh id, so the collector keeps
// the first process's name for its events instead of renaming them.
func TestReleasedRecordGetsFreshTraceName(t *testing.T) {
	k := NewKernelIn(NewArena())
	c := trace.NewCollector()
	k.SetSink(c)
	first := spawnHolder(k, "first", 1)
	k.Run(2)
	k.Release(first)
	if second := spawnHolder(k, "second", 1); second != first {
		t.Fatal("spawn after Release did not reuse the released record")
	}
	k.Drain()

	var buf bytes.Buffer
	if err := (&trace.Trace{Shards: []*trace.Collector{c}}).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"first", "second"} {
		if !strings.Contains(buf.String(), `"name":"`+name+`"`) {
			t.Errorf("trace lost the turns of %q", name)
		}
	}
}

// TestReleaseLiveProcessPanics pins that only dead processes can be
// released — before the first turn, while parked — and only once.
func TestReleaseLiveProcessPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	k := NewKernelIn(NewArena())
	p := spawnHolder(k, "live", 1)
	mustPanic("release before the first turn", func() { k.Release(p) })
	k.Step()
	mustPanic("release while parked", func() { k.Release(p) })
	k.Drain()
	k.Release(p)
	mustPanic("second release", func() { k.Release(p) })
}

// recycleFrame is one short-lived child of recycleReplicate: hold dt,
// then record the finish time (negated when interrupted).
type recycleFrame struct {
	FrameState
	p   *Proc
	dt  float64
	out *float64
}

func (f *recycleFrame) Step(m *Machine, ok bool) Status {
	if f.PC == 0 {
		f.PC = 1
		if f.p.StartHold(f.dt) {
			return Park
		}
		ok = false
	}
	if ok {
		*f.out = f.p.Now()
	} else {
		*f.out = -f.p.Now()
	}
	return m.Return(ok)
}

// spawnerFrame launches one child per time unit, each with a deadline
// abort, releasing every dead child (process and frame) before the next
// launch — the owner side of the recycling contract, as rtdbs runs it.
type spawnerFrame struct {
	FrameState
	p    *Proc
	out  []float64
	live []*recycleFrame
	i    int
}

func (f *spawnerFrame) Step(m *Machine, ok bool) Status {
	k := f.p.Kernel()
	for {
		if f.PC == 1 && !ok {
			return m.Return(false)
		}
		n := 0
		for _, c := range f.live {
			if c.p.Dead() {
				k.Release(c.p)
				FreeTo(k.Arena(), c)
			} else {
				f.live[n] = c
				n++
			}
		}
		clear(f.live[n:])
		f.live = f.live[:n]
		if f.i == len(f.out) {
			return m.Return(true)
		}
		c := AllocFrom[recycleFrame](k.Arena())
		c.dt, c.out = 0.5+float64(f.i%5), &f.out[f.i]
		c.p = k.Spawn("child", c)
		k.AtInterrupt(3, c.p)
		f.live = append(f.live, c)
		f.i++
		f.PC = 1
		if f.p.StartHold(1) {
			return Park
		}
		ok = false
	}
}

// recycleReplicate runs len(out) recycled children on a kernel built in
// a (a heap kernel when a is nil) and returns the executed-step count;
// out receives each child's signed finish time.
func recycleReplicate(a *Arena, out []float64, live []*recycleFrame) uint64 {
	k := NewKernelIn(a)
	f := AllocFrom[spawnerFrame](a)
	f.out, f.live = out, live[:0]
	f.p = k.Spawn("spawner", f)
	k.Drain()
	return k.Steps()
}

// TestWarmReplicateWithRecyclingMatchesCold pins that recycling within
// a replicate and the arena reset between replicates compose: a warm
// replicate reproduces the cold one and a heap kernel exactly, and
// allocates nothing.
func TestWarmReplicateWithRecyclingMatchesCold(t *testing.T) {
	const n = 64
	live := make([]*recycleFrame, 0, n)
	heapOut := make([]float64, n)
	want := recycleReplicate(nil, heapOut, live)

	a := NewArena()
	out := make([]float64, n)
	for cycle := 0; cycle < 3; cycle++ {
		clear(out)
		if got := recycleReplicate(a, out, live); got != want {
			t.Fatalf("cycle %d: steps %d, want %d", cycle, got, want)
		}
		for i := range out {
			if out[i] != heapOut[i] {
				t.Fatalf("cycle %d: child %d finished %g, want %g", cycle, i, out[i], heapOut[i])
			}
		}
		if used := SlabFor[Proc](a).used(); used > 8 {
			t.Fatalf("cycle %d: %d process records for at most 5 live children", cycle, used)
		}
		a.Reset()
	}
	if allocs := testing.AllocsPerRun(5, func() {
		recycleReplicate(a, out, live)
		a.Reset()
	}); allocs != 0 {
		t.Errorf("warm recycled replicate allocated %.1f objects/run, want 0", allocs)
	}
}

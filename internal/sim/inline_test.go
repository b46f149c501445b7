package sim

import "testing"

// bodyFrame is a straight-line test process: its steps run in order, each
// holding the code up to and including one wait. A step reports whether
// its wait was entered: on true the process parks and the next step
// receives the wait's outcome in ok (false = interrupted); on false (no
// wait armed, or a pending interrupt consumed it) the next step runs at
// once with ok=false. The first step receives ok=true.
type bodyFrame struct {
	FrameState
	p     *Proc
	steps []func(p *Proc, ok bool) bool
}

func (f *bodyFrame) Step(m *Machine, ok bool) Status {
	for int(f.PC) < len(f.steps) {
		i := f.PC
		f.PC++
		if f.steps[i](f.p, ok) {
			return Park
		}
		ok = false
	}
	return m.Return(ok)
}

// spawnBody spawns a process running steps as a bodyFrame.
func spawnBody(k *Kernel, name string, steps ...func(p *Proc, ok bool) bool) *Proc {
	f := &bodyFrame{steps: steps}
	f.p = k.Spawn(name, f)
	return f.p
}

// holdWakeFrame is an endless Hold(1) / Park alternation that exits on
// interrupt.
type holdWakeFrame struct {
	FrameState
	t      *Proc
	cycles int
}

func (f *holdWakeFrame) Step(m *Machine, ok bool) Status {
	for {
		switch f.PC {
		case 0:
			f.PC = 1
			if f.t.StartHold(1) {
				return Park
			}
			ok = false
		case 1:
			if !ok {
				return m.Return(false)
			}
			f.PC = 2
			if f.t.StartPark() {
				return Park
			}
			ok = false
		case 2:
			if !ok {
				return m.Return(false)
			}
			f.cycles++
			f.PC = 0
		}
	}
}

// TestHoldWakeSequence drives the hold/park/wake/interrupt cycle step by
// step and pins the kernel's (Now, Steps) after every step: each cycle
// is a timed wake, the turn that parks, and the turn the external Wake
// schedules, and the final interrupt cancels the pending hold and ends
// the process in one more turn at the same instant.
func TestHoldWakeSequence(t *testing.T) {
	type point struct {
		now   float64
		steps uint64
	}
	k := NewKernel()
	f := &holdWakeFrame{}
	p := k.Spawn("holdwake", f)
	f.t = p
	var got []point
	step := func() {
		if !k.Step() {
			t.Fatalf("no event pending after %d steps", k.Steps())
		}
		got = append(got, point{k.Now(), k.Steps()})
	}

	step() // spawn turn: parks in the hold
	for i := 0; i < 5; i++ {
		step() // hold timer fires, wake scheduled
		step() // resumes, parks in the park
		p.Wake()
		step() // resumes, parks in the hold again
	}
	if f.cycles != 5 {
		t.Fatalf("completed %d cycles, want 5", f.cycles)
	}
	p.Interrupt()
	k.Drain()
	got = append(got, point{k.Now(), k.Steps()})

	want := []point{{0, 1},
		{1, 2}, {1, 3}, {1, 4},
		{2, 5}, {2, 6}, {2, 7},
		{3, 8}, {3, 9}, {3, 10},
		{4, 11}, {4, 12}, {4, 13},
		{5, 14}, {5, 15}, {5, 16},
		{5, 17}}
	if len(got) != len(want) {
		t.Fatalf("sequence %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d at (t=%g, steps=%d), want (t=%g, steps=%d); sequence %v",
				i, got[i].now, got[i].steps, want[i].now, want[i].steps, got)
		}
	}
	if !p.Dead() || k.LiveProcs() != 0 {
		t.Fatalf("process dead=%v, live procs %d", p.Dead(), k.LiveProcs())
	}
}

// TestInlinePendingInterrupt verifies the deferred-interrupt window: an
// Interrupt delivered while the machine is running (wake pending) must
// surface at the next blocking point, which is consumed without parking.
func TestInlinePendingInterrupt(t *testing.T) {
	k := NewKernel()
	f := &holdWakeFrame{}
	p := k.Spawn("victim", f)
	f.t = p
	k.Step() // spawn turn: parks in Hold(1)
	p.Interrupt()
	if p.Dead() {
		t.Fatal("interrupt resumed the process synchronously")
	}
	k.Drain()
	if !p.Dead() {
		t.Fatal("interrupted hold did not finish the process")
	}
	if f.cycles != 0 {
		t.Fatalf("cycles = %d, want 0", f.cycles)
	}
	if got := k.Now(); got != 0 {
		t.Fatalf("clock advanced to %g; interrupted hold should fire at 0", got)
	}
}

// gateWaitFrame queues at a gate once and records the outcome.
type gateWaitFrame struct {
	FrameState
	t    *Proc
	g    *Gate
	prio float64
	got  bool
}

func (f *gateWaitFrame) Step(m *Machine, ok bool) Status {
	switch f.PC {
	case 0:
		f.PC = 1
		if f.g.Enqueue(f.t, f.prio, nil, 0) {
			return Park
		}
		ok = false
		fallthrough
	default:
		f.got = ok
		return m.Return(ok)
	}
}

// TestInlineGateEnqueue drives gate release and gate interrupt against
// three waiters on one gate.
func TestInlineGateEnqueue(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "mixed")
	fa := &gateWaitFrame{g: g, prio: 2}
	pa := k.Spawn("a", fa)
	fa.t = pa
	gotB := false
	spawnBody(k, "b",
		func(p *Proc, _ bool) bool { return g.Enqueue(p, 1, nil, 0) },
		func(_ *Proc, ok bool) bool { gotB = ok; return false })
	fc := &gateWaitFrame{g: g, prio: 3}
	pc := k.Spawn("c", fc)
	fc.t = pc
	for i := 0; i < 3; i++ {
		k.Step() // spawn turns: all three queue
	}
	if g.Len() != 3 {
		t.Fatalf("gate len = %d, want 3", g.Len())
	}
	// Owner picks the lowest Prio (b), releases it.
	var best *Waiting
	for w := g.First(); w != nil; w = w.Next() {
		if best == nil || w.Prio < best.Prio {
			best = w
		}
	}
	if best.Proc().Name() != "b" {
		t.Fatalf("best waiter = %q, want b", best.Proc().Name())
	}
	g.Release(best)
	// Interrupt one waiter while queued: removed, outcome false.
	pc.Interrupt()
	k.Drain()
	if !gotB {
		t.Fatal("released waiter b did not observe success")
	}
	if fc.got {
		t.Fatal("interrupted waiter observed success")
	}
	if g.Len() != 1 || g.First().Proc().Name() != "a" {
		t.Fatalf("gate should still hold only a; len=%d", g.Len())
	}
	if pa.Dead() {
		t.Fatal("waiter a should still be parked")
	}
	g.Release(g.First())
	k.Drain()
	if !fa.got || !pa.Dead() {
		t.Fatal("waiter a did not complete after release")
	}
}

// serverUseFrame runs one StartUse request and records the outcome.
type serverUseFrame struct {
	FrameState
	t       *Proc
	s       *Server
	prio    float64
	service float64
	got     bool
}

func (f *serverUseFrame) Step(m *Machine, ok bool) Status {
	switch f.PC {
	case 0:
		f.PC = 1
		if f.s.StartUse(f.t, f.prio, f.service) {
			return Park
		}
		ok = false
		fallthrough
	default:
		f.got = ok
		return m.Return(ok)
	}
}

// TestInlineServerStartUse exercises the direct and queued service paths
// and checks busy-time accounting.
func TestInlineServerStartUse(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "srv")
	fa := &serverUseFrame{s: s, prio: 2, service: 3}
	pa := k.Spawn("a", fa)
	fa.t = pa
	fb := &serverUseFrame{s: s, prio: 1, service: 2}
	pb := k.Spawn("b", fb)
	fb.t = pb
	k.Drain()
	if !fa.got || !fb.got {
		t.Fatalf("service outcomes = %v, %v; want true, true", fa.got, fb.got)
	}
	if got := k.Now(); got != 5 {
		t.Fatalf("clock = %g, want 5 (3s direct + 2s queued)", got)
	}
	if got := s.Meter().BusyTime(); got != 5 {
		t.Fatalf("busy time = %g, want 5", got)
	}
}

// callFrames: parent calls a child frame twice and sums results the
// child computes across a park, verifying Call/Return plumbing and frame
// reuse (the child's PC is reset by each Call).
type childFrame struct {
	FrameState
	t *Proc
	n int
}

func (f *childFrame) Step(m *Machine, ok bool) Status {
	switch f.PC {
	case 0:
		f.PC = 1
		if f.t.StartHold(1) {
			return Park
		}
		ok = false
		fallthrough
	default:
		f.n++
		return m.Return(ok)
	}
}

type parentFrame struct {
	FrameState
	child *childFrame
	runs  int
	final bool
}

func (f *parentFrame) Step(m *Machine, ok bool) Status {
	for {
		switch f.PC {
		case 0: // entry: first call
			f.PC = 1
			return m.Call(f.child)
		case 1: // first result: call again (reuses the child frame)
			if ok {
				f.runs++
			}
			f.PC = 2
			return m.Call(f.child)
		default: // second result
			if ok {
				f.runs++
			}
			f.final = ok
			return m.Return(ok)
		}
	}
}

func TestInlineCallStack(t *testing.T) {
	k := NewKernel()
	child := &childFrame{}
	parent := &parentFrame{child: child}
	p := k.Spawn("nested", parent)
	child.t = p
	k.Drain()
	if !p.Dead() {
		t.Fatal("process did not finish")
	}
	if child.n != 2 || parent.runs != 2 || !parent.final {
		t.Fatalf("child ran %d times (want 2), parent observed %d (want 2), final %v",
			child.n, parent.runs, parent.final)
	}
	if got := k.Now(); got != 2 {
		t.Fatalf("clock = %g, want 2", got)
	}
}

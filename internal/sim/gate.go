package sim

// Gate is a building block for custom schedulers: processes wait at the
// gate, and the gate's owner inspects the waiters and decides whom to
// release, in what order, and whether the release enters an uncancellable
// service section. CPU and disk queues, as well as the memory-admission
// queue, are all built on Gate.
//
// The wait queue is an intrusive doubly-linked list threaded through
// the Waiting record embedded in each Proc, so queueing,
// releasing, and interrupt removal are O(1) and allocation-free. A
// process occupies at most one gate at a time; its record is recycled
// wait after wait, which means a *Waiting handle is only valid while the
// wait it was obtained for is still queued or in service — exactly the
// window in which owners act on handles.
//
// A waiter interrupted while queued is removed from the gate
// automatically and resumes with ok=false; the owner simply never sees
// it again when iterating the queue.
type Gate struct {
	k          *Kernel
	name       string
	seq        uint64
	head, tail *Waiting
	n          int
	// eligMin is a cached lower bound on the Prio of every queued
	// waiter: lowered on enqueue, reset when the queue empties, and
	// never touched by removals (removing a waiter can only raise the
	// true minimum, so the bound stays valid). MinWaiter uses it to
	// stop at the first eligible waiter instead of rescanning the full
	// list on every release, and tightens it whenever a full scan does
	// happen.
	eligMin float64
}

// Waiting is one process queued at a Gate.
type Waiting struct {
	proc       *Proc
	gate       *Gate
	next, prev *Waiting
	seq        uint64
	// Prio is the caller-supplied priority (lower is more urgent under
	// Earliest Deadline). The gate itself does not order by it; owners do.
	Prio float64
	// Val is a float payload attached at Enqueue (service times take
	// this lane to avoid boxing them into Data).
	Val float64
	// Data is an arbitrary payload attached at Enqueue.
	Data any

	removed   bool
	inService bool
}

// NewGate returns an empty gate on kernel k. The name appears in
// diagnostics only.
func NewGate(k *Kernel, name string) *Gate {
	return &Gate{k: k, name: name}
}

// Proc returns the waiting process.
func (w *Waiting) Proc() *Proc { return w.proc }

// Seq returns the arrival sequence number, unique and increasing per gate.
func (w *Waiting) Seq() uint64 { return w.seq }

// Next returns the waiter that arrived after w, for in-place iteration
// in arrival order: for w := g.First(); w != nil; w = w.Next() { ... }.
// The queue must not be mutated mid-iteration; owners scan, pick, then
// call Release or BeginService.
func (w *Waiting) Next() *Waiting { return w.next }

// Len returns the number of queued (not in-service) waiters.
func (g *Gate) Len() int { return g.n }

// First returns the longest-queued waiter, or nil for an empty gate.
func (g *Gate) First() *Waiting { return g.head }

// MinWaiter returns the queued waiter with the lowest Prio, first
// arrival among ties (the exact pick of an arrival-order scan with a
// strict < comparison), or nil for an empty gate. The scan stops at the
// first waiter whose Prio is at or below the cached eligibility bound:
// such a waiter ties the true minimum, and every waiter passed over
// arrived earlier with a strictly higher Prio, so the early exit
// preserves the FIFO tie-break bit for bit. When the bound has gone
// stale (all eligible waiters have left), the one full scan that
// detects it also re-tightens the bound to the true minimum.
func (g *Gate) MinWaiter() *Waiting {
	var best *Waiting
	for w := g.head; w != nil; w = w.next {
		if w.Prio <= g.eligMin {
			return w
		}
		if best == nil || w.Prio < best.Prio {
			best = w
		}
	}
	if best != nil {
		g.eligMin = best.Prio
	}
	return best
}

// remove unlinks w from the queue, preserving order. Every dequeue —
// release, service entry, interrupt removal — funnels here, so it is
// also where a trace sink observes the wait ending.
func (g *Gate) remove(w *Waiting) {
	if w.removed {
		return
	}
	if s := g.k.sink; s != nil {
		s.WaitEnd(g.k.now, g.name, w.proc.tid)
	}
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		g.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		g.tail = w.prev
	}
	w.next, w.prev = nil, nil
	w.removed = true
	g.n--
}

// enqueue links a process's embedded wait record into the queue and
// marks its wait cancellable by unlinking. Enqueue and Server.StartUse
// both funnel here.
func (g *Gate) enqueue(p *Proc, prio float64, data any, val float64) {
	w := &p.wait
	*w = Waiting{proc: p, gate: g, seq: g.seq, Prio: prio, Val: val, Data: data}
	g.seq++
	if g.tail == nil {
		g.head = w
		g.eligMin = prio
	} else {
		g.tail.next = w
		w.prev = g.tail
		if prio < g.eligMin {
			g.eligMin = prio
		}
	}
	g.tail = w
	g.n++
	p.cancel = cancelGate
	if s := g.k.sink; s != nil {
		s.WaitBegin(g.k.now, g.name, p.tid, prio)
	}
}

// Enqueue queues p at the gate with the given priority and payloads
// (read back via Waiting.Data and Waiting.Val) and reports whether the
// wait was entered; false means a pending interrupt consumed it and
// nothing was queued. On true the calling frame must return Park at
// once. Its next Step receives ok=true when the owner releases it (or
// ends its service section) and ok=false when it was interrupted while
// queued (the entry is removed) or during a service section begun with
// BeginService (the service completes first).
func (g *Gate) Enqueue(p *Proc, prio float64, data any, val float64) bool {
	if p.takePendingInterrupt() {
		return false
	}
	g.enqueue(p, prio, data, val)
	return true
}

// Release removes w from the queue and wakes its process. It reports
// false if w was already released or interrupted (a stale handle).
func (g *Gate) Release(w *Waiting) bool {
	if w.removed || w.gate != g {
		return false
	}
	g.remove(w)
	w.proc.deliverWake(false)
	return true
}

// BeginService removes w from the queue but leaves its process parked in
// an uncancellable section; the owner must later call EndService. It
// reports false for stale handles.
func (g *Gate) BeginService(w *Waiting) bool {
	if w.removed || w.gate != g || w.inService {
		return false
	}
	g.remove(w)
	w.inService = true
	// The process keeps waiting but can no longer be torn out of the
	// queue: mark its wait uncancellable so interrupts defer to
	// EndService.
	w.proc.cancel = cancelNone
	return true
}

// EndService wakes a process whose service section (started with
// BeginService) has completed. A deferred interrupt is folded into the
// outcome the waiter resumes with.
func (g *Gate) EndService(w *Waiting) {
	if !w.inService {
		panic("sim: EndService without BeginService")
	}
	w.inService = false
	w.proc.deliverWake(false)
}

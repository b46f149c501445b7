package sim

import "fmt"

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procRunning     procState = iota // currently executing its turn
	procParked                       // blocked, waiting for a wake
	procWakePending                  // wake event scheduled but not yet run
	procDead                         // body returned
)

// cancelKind tags how a parked process's current wait can be undone: a
// tag rather than a closure, so arming a wait (StartHold, Gate.Enqueue)
// stays allocation-free.
type cancelKind int8

const (
	// cancelNone marks an uncancellable section (e.g. a disk transfer);
	// interrupts are deferred to its completion.
	cancelNone cancelKind = iota
	// cancelTimer: the wait is a hold; cancelling stops the hold timer,
	// which unlinks the pending wake from its timing-wheel bucket in
	// place — interrupt-heavy workloads (firm-deadline aborts) leave no
	// tombstone debris in the event queue.
	cancelTimer
	// cancelGate: the wait is a Gate queue entry; cancelling unlinks
	// the embedded wait record from its gate.
	cancelGate
	// cancelPlain marks a wait entered via StartPark, the only kind of
	// wait that Wake may resume; Wake must never tear a process out of
	// a timer or a scheduler queue.
	cancelPlain
	// cancelService: the wait is a transfer started at once on an idle
	// resource (StartService), ended by its Kernel.EndService. Cancelling
	// only resumes the process; the transfer runs on.
	cancelService
)

// Proc is a simulation process: a resumable state machine the kernel
// executes directly on its own goroutine (see inline.go for the frame
// stack that expresses its body). Spawn registers the process with the
// kernel, which assigns tid — the index typed events carry instead of a
// pointer or a closure. Scheduler owners (gates, servers, disks) and
// controllers hold *Proc handles; they arm waits and deliver wakes
// through the methods below.
//
// All methods must be called from simulation context (the kernel loop or
// a process turn); the package is not safe for arbitrary goroutines.
type Proc struct {
	k    *Kernel
	name string

	tid   int32 // index in Kernel.tasks, the typed-event payload
	state procState
	// pendingInterrupt records an Interrupt that could not resume the
	// process immediately (it was running, mid-service, or already had a
	// wake in flight); the next blocking point reports it.
	pendingInterrupt bool
	// cancel describes how to undo the wait the process is parked in;
	// cancelNone means an uncancellable section.
	cancel cancelKind
	// wakeInterrupted is the outcome the pending wake delivers.
	wakeInterrupted bool
	// started is false until the first turn, which is an entry, not the
	// completion of a wait.
	started bool
	// holdID/holdSeq identify the pending wake event of the current hold
	// (cancelTimer): a pointer-free handle, so arming a hold stores no
	// pointer and crosses no write barrier. Under cancelService, holdID
	// is the serving completer's id.
	holdID  int32
	holdSeq uint64
	// wait is the process's gate queue entry, embedded so queueing never
	// allocates; a process occupies at most one gate at a time, and the
	// entry is recycled wait after wait (see Gate).
	wait Waiting
	m    Machine
}

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulation time.
func (p *Proc) Now() float64 { return p.k.now }

// Dead reports whether the process body has finished.
func (p *Proc) Dead() bool { return p.state == procDead }

// ID returns the process's kernel-local id, the handle a resource keeps
// instead of the process (see Kernel.EndService).
func (p *Proc) ID() int32 { return p.tid }

// takePendingInterrupt consumes a deferred interrupt, if any.
func (p *Proc) takePendingInterrupt() bool {
	if p.pendingInterrupt {
		p.pendingInterrupt = false
		return true
	}
	return false
}

// deliverWake schedules the resumption of a parked process.
func (p *Proc) deliverWake(interrupted bool) {
	switch p.state {
	case procParked:
		p.state = procWakePending
		p.wakeInterrupted = interrupted
		p.k.schedTurn(p)
	case procWakePending:
		if interrupted {
			p.pendingInterrupt = true
		}
	case procDead:
		// Late wake for a finished process: drop it.
	case procRunning:
		panic("sim: wake delivered to a running process")
	}
}

// StartHold arms a cancellable timed wake after dt simulated seconds and
// reports whether the wait was entered; false means a pending interrupt
// consumed it instead (no timer armed). On true the calling frame must
// return Park at once; its next Step receives ok=false iff the hold was
// interrupted.
func (p *Proc) StartHold(dt float64) bool {
	if dt < 0 {
		panic(fmt.Sprintf("sim: negative hold %g", dt))
	}
	if p.takePendingInterrupt() {
		return false
	}
	p.holdID, p.holdSeq = p.k.schedWake(dt, p)
	p.cancel = cancelTimer
	return true
}

// StartPark arms a plain cancellable wait, ended by Wake or Interrupt,
// and reports whether it was entered; false means a pending interrupt
// consumed it. Same park-on-true contract as StartHold.
func (p *Proc) StartPark() bool {
	if p.takePendingInterrupt() {
		return false
	}
	p.cancel = cancelPlain
	return true
}

// StartService arms a wait for a transfer the completer comp has just
// started for this process, ended by Kernel.EndService; Interrupt
// resumes the process at once. Same park-on-true contract as StartHold.
func (p *Proc) StartService(comp int32) bool {
	if p.takePendingInterrupt() {
		return false
	}
	p.holdID = comp
	p.cancel = cancelService
	return true
}

// Wake resumes a process blocked in a plain park (StartPark). Waking a
// process in any other state is a no-op, so callers may wake liberally.
// Waits owned by a Gate or Server can only be ended by the owning
// primitive. For a timed wait, use StartHold.
func (p *Proc) Wake() {
	if p.state == procParked && p.cancel == cancelPlain {
		p.cancel = cancelNone
		p.deliverWake(false)
	}
}

// Interrupt aborts the process's current blocking operation. A
// cancellable wait (hold, plain park, gate queue) is torn down and
// resumes immediately with an interrupted outcome; an uncancellable
// section (in-service disk transfer or CPU burst) completes first and
// then reports the interruption. Interrupting a dead process is a no-op.
func (p *Proc) Interrupt() {
	switch p.state {
	case procParked:
		switch p.cancel {
		case cancelNone:
			p.pendingInterrupt = true
		case cancelTimer:
			p.cancel = cancelNone
			p.k.stopEvent(p.holdID, p.holdSeq)
			p.deliverWake(true)
		case cancelGate:
			p.cancel = cancelNone
			p.wait.gate.remove(&p.wait)
			p.deliverWake(true)
		case cancelPlain, cancelService:
			p.cancel = cancelNone
			p.deliverWake(true)
		}
	case procWakePending, procRunning:
		p.pendingInterrupt = true
	case procDead:
	}
}

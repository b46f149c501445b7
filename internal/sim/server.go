package sim

// Server is a single-channel priority resource: one request is in service
// at a time, and when it completes the queued request with the lowest
// Prio value (earliest deadline) starts next, FIFO among ties. Service is
// uncancellable once started; interrupts delivered mid-service surface
// after the request completes. The simulated CPU is a Server.
//
// The service hot path is allocation-free and closure-free: completions
// are typed kernel events (AtComplete) addressing the server by its
// registered completer id, and the in-flight request is carried in
// Server fields rather than per-dispatch closures. Completion timers
// are never cancelled (service is uncancellable), so they ride the
// kernel's fastest timed path end to end — typically the front
// registers or a level-0 wheel bucket. The two completion
// paths deliberately differ in ordering — a direct serve dispatches the
// next request before waking its caller, while a queued completion wakes
// the served process first — preserving the event order of the original
// implementation bit for bit.
type Server struct {
	k     *Kernel
	gate  *Gate
	meter *BusyMeter
	busy  bool

	cur    *Waiting // queued entry currently in service
	direct *Proc    // caller of an idle-server direct serve

	compID int32 // completer id AtComplete addresses this server by
}

// NewServer returns an idle server.
func NewServer(k *Kernel, name string) *Server {
	s := &Server{k: k, gate: NewGate(k, name), meter: NewBusyMeter(k)}
	s.compID = k.RegisterCompleter(s)
	return s
}

// Complete delivers a typed completion event; see Completer.
func (s *Server) Complete(direct bool) {
	if direct {
		s.completeDirect()
	} else {
		s.completeQueued()
	}
}

// Meter exposes the server's busy-time accounting.
func (s *Server) Meter() *BusyMeter { return s.meter }

// QueueLen returns the number of queued (not in-service) requests.
func (s *Server) QueueLen() int { return s.gate.Len() }

// StartUse enters a request for service seconds of exclusive use —
// starting service immediately on an idle server, queueing otherwise;
// lower prio values are served first — and reports whether the wait was
// entered (false means a pending interrupt consumed it; if service had
// already started it still completes on the server's timeline). On true
// the calling frame must return Park at once. Its next Step receives
// ok=false if the process was interrupted — before service started (no
// time consumed) or during it (service completed, then the interruption
// is reported).
func (s *Server) StartUse(p *Proc, prio float64, service float64) bool {
	if service < 0 {
		panic("sim: negative service time")
	}
	if !s.busy {
		// Fast path: idle server, start service immediately, parking the
		// caller uncancellably for the service duration.
		s.busy = true
		s.meter.SetBusy(true)
		if p.takePendingInterrupt() {
			s.finish()
			return false
		}
		p.cancel = cancelNone
		s.direct = p
		s.k.AtComplete(service, s.compID, true)
		return true
	}
	if p.takePendingInterrupt() {
		return false
	}
	// On a normal release the dispatcher has already accounted for the
	// service; the wake is the completion signal.
	s.gate.enqueue(p, prio, nil, service)
	return true
}

// completeDirect ends a direct serve: the server is freed (dispatching
// the next queued request) before the served caller's wake is scheduled.
func (s *Server) completeDirect() {
	p := s.direct
	s.direct = nil
	s.finish()
	p.deliverWake(false)
}

// finish marks the server idle and dispatches the next queued request.
func (s *Server) finish() {
	s.busy = false
	s.meter.SetBusy(false)
	s.dispatch()
}

// completeQueued ends a dispatched service: the served process's wake is
// scheduled before the next request starts.
func (s *Server) completeQueued() {
	w := s.cur
	s.cur = nil
	s.busy = false
	s.meter.SetBusy(false)
	s.gate.EndService(w)
	s.dispatch()
}

// dispatch starts service for the best queued request, if any.
func (s *Server) dispatch() {
	if s.busy {
		return
	}
	// MinWaiter preserves the arrival-order strict-< pick (first-arrived
	// minimum) while skipping the full rescan when the cached eligibility
	// bound identifies the winner early.
	best := s.gate.MinWaiter()
	if best == nil {
		return
	}
	service := best.Val
	if !s.gate.BeginService(best) {
		return
	}
	s.busy = true
	s.meter.SetBusy(true)
	s.cur = best
	s.k.AtComplete(service, s.compID, false)
}

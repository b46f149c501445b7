package main

import (
	"strings"
	"time"

	"pmm/internal/trace"
)

// numKinds covers every kernel event kind the sink can see.
const numKinds = int(trace.KindMessage) + 1

// noKind marks the stretch of a slice before its first dispatch.
const noKind = -1

// Gate classes the sink accumulates queue waits for.
const (
	gateCPU = iota
	gateDisk
	gateOther
	numGates
)

// layerSink is the benchmark's kernel observer. It counts events by
// kind and completions by completer, sums simulated queue waits by
// gate, and attributes host time to event kinds: the time from one
// dispatch to the next is charged to the earlier event, so each kind's
// total is its self time. It only reads what the kernel reports, so it
// never changes a simulation.
type layerSink struct {
	base time.Time // monotonic origin of the host clock

	counts  [numKinds]uint64
	selfNs  [numKinds]int64
	cancels uint64
	// comps counts Complete/CompleteQ events per completer index. The
	// CPU registers its completer first and the disks after it, in
	// order, so index 0 is the CPU and index i is disk i-1.
	comps []uint64

	// Host-time attribution state: last dispatch time and its kind.
	last     int64
	lastKind int
	// preNs is slice time before the slice's first dispatch.
	preNs int64

	// Simulated gate waits: the begin time of each task's open wait.
	open     []float64
	openGate []int8
	waitSum  [numGates]float64
}

func newLayerSink() *layerSink {
	return &layerSink{base: time.Now(), lastKind: noKind}
}

// now is host nanoseconds since the sink's origin (monotonic).
func (s *layerSink) now() int64 { return int64(time.Since(s.base)) }

// beginSlice starts host-time attribution for one Kernel.Run call.
func (s *layerSink) beginSlice() {
	s.last = s.now()
	s.lastKind = noKind
}

// endSlice charges the time since the last dispatch to that event and
// stops attribution until the next beginSlice.
func (s *layerSink) endSlice() {
	s.charge(s.now())
	s.lastKind = noKind
}

func (s *layerSink) charge(t int64) {
	if s.lastKind == noKind {
		s.preNs += t - s.last
	} else {
		s.selfNs[s.lastKind] += t - s.last
	}
	s.last = t
}

// events is the number of dispatched events seen.
func (s *layerSink) events() uint64 {
	var n uint64
	for _, c := range s.counts {
		n += c
	}
	return n
}

// Dispatch implements trace.Sink.
func (s *layerSink) Dispatch(at float64, seq uint64, kind uint8, arg int32) {
	s.charge(s.now())
	k := int(kind)
	if k >= numKinds {
		k = int(trace.KindClosure)
	}
	s.lastKind = k
	s.counts[k]++
	if kind == trace.KindComplete || kind == trace.KindCompleteQ {
		for int(arg) >= len(s.comps) {
			s.comps = append(s.comps, 0)
		}
		s.comps[arg]++
	}
}

// Cancel implements trace.Sink.
func (s *layerSink) Cancel(at float64, seq uint64) { s.cancels++ }

// WaitBegin implements trace.Sink.
func (s *layerSink) WaitBegin(at float64, gate string, task int32, prio float64) {
	for int(task) >= len(s.open) {
		s.open = append(s.open, 0)
		s.openGate = append(s.openGate, -1)
	}
	s.open[task] = at
	s.openGate[task] = int8(gateClass(gate))
}

// WaitEnd implements trace.Sink.
func (s *layerSink) WaitEnd(at float64, gate string, task int32) {
	if int(task) >= len(s.open) || s.openGate[task] < 0 {
		return
	}
	g := s.openGate[task]
	s.waitSum[g] += at - s.open[task]
	s.openGate[task] = -1
}

// TaskName implements trace.Sink.
func (s *layerSink) TaskName(id int32, name string) {}

// gateClass maps a gate name to its accounting class.
func gateClass(name string) int {
	switch {
	case name == "cpu":
		return gateCPU
	case strings.HasPrefix(name, "disk"):
		return gateDisk
	}
	return gateOther
}

// cpuBursts and diskAccesses split completions by completer index.
func (s *layerSink) cpuBursts() uint64 {
	if len(s.comps) == 0 {
		return 0
	}
	return s.comps[0]
}

func (s *layerSink) diskAccesses() uint64 {
	var n uint64
	for _, c := range s.comps[min(1, len(s.comps)):] {
		n += c
	}
	return n
}

// kindNs is the self time and count of a set of kinds.
func (s *layerSink) kindNs(kinds ...uint8) (ns int64, n uint64) {
	for _, k := range kinds {
		ns += s.selfNs[k]
		n += s.counts[k]
	}
	return ns, n
}

var _ trace.Sink = (*layerSink)(nil)

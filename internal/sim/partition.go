package sim

import (
	"sort"
	"sync/atomic"
)

// Partitioned (parallel) simulation: one simulated system sharded across
// several kernels, synchronized by classic conservative lookahead in
// window-barrier form. Each partition owns a kernel and declares a
// Horizon — the earliest future time at which it can interact with
// another partition. The Coordinator repeatedly advances every partition
// to the minimum horizon (the global lower bound), then runs a
// single-threaded exchange at that barrier in which cross-partition
// interactions are applied in a fixed total order. Because no partition
// ever runs past the earliest possible interaction, and the exchange is
// deterministic, the combined simulation is bit-for-bit identical for
// any worker count — including workers = 1 — which is what lets golden
// digests extend to the parallel path. Cross-partition interactions
// (the multi-tenant memory broker) are applied exactly at the window
// bound.

// Partition is one shard of a partitioned simulation. Implementations
// wrap a kernel plus the model state that runs on it; the contract is
// that the partition's model cannot affect, or be affected by, another
// partition at any time strictly before Horizon().
type Partition interface {
	// Kernel returns the shard's simulation kernel.
	Kernel() *Kernel
	// Horizon returns the partition's lookahead bound: the earliest
	// future simulation time at which it can interact with another
	// partition. Returning math.Inf(1) means the partition is fully
	// decoupled for the rest of the run. Horizon must be monotonically
	// non-decreasing and must advance past each barrier the exchange
	// handles, or the coordinator cannot make progress.
	Horizon() float64
}

// Pool is a persistent set of parked worker goroutines that fan a batch
// of partitions out for one window. It replaces spawning fresh
// goroutines per window: workers park on an unbuffered channel between
// windows and are recruited with non-blocking sends, so offering work
// costs a few channel operations and zero allocations in steady state.
//
// The caller always helps: Advance claims work items itself alongside
// any recruited workers, so with every worker busy it simply runs the
// whole batch itself.
type Pool struct {
	work  chan *Batch
	spare int // worker goroutines beyond the calling one
}

// Batch is one caller's reusable fan-out state. A Batch may be reused
// across windows by the same caller, but never concurrently; Advance
// guarantees every participant is finished with the Batch before it
// returns, which is what makes reuse race-free.
type Batch struct {
	parts []Partition
	bound float64
	next  atomic.Int64 // next unclaimed index into parts
	left  atomic.Int64 // participants still inside exec
	done  chan struct{}
}

// NewPool builds a pool sized for `workers`-way parallelism: the caller
// plus workers-1 parked goroutines. workers < 1 is treated as 1 (no
// goroutines; Advance runs everything on the caller).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{work: make(chan *Batch), spare: workers - 1}
	for i := 0; i < p.spare; i++ {
		go p.worker()
	}
	return p
}

// NewBatch returns a fresh reusable fan-out state for one caller.
func (p *Pool) NewBatch() *Batch {
	return &Batch{done: make(chan struct{}, 1)}
}

// Close releases the pool's worker goroutines. The pool must be idle
// (no Advance in flight); after Close it must not be used again.
func (p *Pool) Close() { close(p.work) }

func (p *Pool) worker() {
	for b := range p.work {
		b.exec()
	}
}

// exec claims and advances work items until none remain, then checks
// out of the batch; the last participant out signals done. Workers
// recruited too late to claim anything still check out, so the caller's
// receive on done proves no goroutine holds the Batch anymore.
func (b *Batch) exec() {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= len(b.parts) {
			break
		}
		b.parts[i].Kernel().Run(b.bound)
	}
	if b.left.Add(-1) == 0 {
		b.done <- struct{}{}
	}
}

// Advance runs every partition in parts to bound using b as the
// fan-out state, returning when all have finished and no worker
// references b. Partitions are claimed dynamically (work stealing), so
// slow partitions do not serialize behind fast ones.
func (p *Pool) Advance(b *Batch, parts []Partition, bound float64) {
	if len(parts) == 0 {
		return
	}
	if p.spare == 0 || len(parts) == 1 {
		for _, part := range parts {
			part.Kernel().Run(bound)
		}
		return
	}
	b.parts = parts
	b.bound = bound
	b.next.Store(0)
	// Pessimistic participant count — every spare worker plus the
	// caller — set before any worker can observe the batch; the
	// unrecruited balance is subtracted after the offer round. The
	// caller has not checked out yet, so the count cannot reach zero
	// early.
	b.left.Store(int64(p.spare) + 1)
	recruited := 0
	for recruited < p.spare && recruited < len(parts)-1 {
		select {
		case p.work <- b:
			recruited++
			continue
		default:
		}
		break
	}
	if delta := int64(p.spare - recruited); delta != 0 {
		b.left.Add(-delta)
	}
	b.exec()
	<-b.done
	b.parts = nil
}

// Coordinator drives a set of partitions with window barriers.
type Coordinator struct {
	parts []Partition
	pool  *Pool
	batch *Batch
	// exchange applies cross-partition interactions at a barrier time.
	// It runs single-threaded, after every partition has advanced to
	// exactly that time and before any partition resumes.
	exchange func(now float64)
	now      float64
}

// NewCoordinator builds a coordinator over the given partitions.
// workers bounds how many partitions advance concurrently within one
// window (values < 1 mean sequential execution); it affects wall-clock
// time only, never results, and is clamped to the partition count. The
// workers are created once here as a persistent pool and parked between
// windows; call Close when done with the coordinator to release them.
// exchange may be nil for fully decoupled partitions.
func NewCoordinator(parts []Partition, workers int, exchange func(now float64)) *Coordinator {
	if workers > len(parts) {
		workers = len(parts)
	}
	pool := NewPool(workers)
	return &Coordinator{parts: parts, pool: pool, batch: pool.NewBatch(), exchange: exchange}
}

// Close releases the coordinator's worker pool. The coordinator must
// not Run again after Close.
func (c *Coordinator) Close() { c.pool.Close() }

// Now returns the global lower bound on simulation time: every partition
// has advanced to at least this time.
func (c *Coordinator) Now() float64 { return c.now }

// Run advances all partitions to time until. Each window computes the
// global bound min(partition horizons, until), advances every partition
// to it — concurrently when workers > 1; kernels never share state, so
// the only synchronization is the barrier itself — and, when the bound
// is an interaction horizon rather than the end time, runs the exchange
// at the barrier before opening the next window.
func (c *Coordinator) Run(until float64) {
	for c.now < until {
		bound := until
		for _, p := range c.parts {
			if h := p.Horizon(); h < bound {
				bound = h
			}
		}
		c.pool.Advance(c.batch, c.parts, bound)
		c.now = bound
		if bound >= until {
			break
		}
		if c.exchange != nil {
			c.exchange(bound)
		}
	}
}

// Message is one cross-partition interaction record, exchanged at a
// window barrier. The triple (At, Seq, Shard) is its position in the
// combined event order; Kind and the payload words are owner-defined.
type Message struct {
	// At is the simulation time of the interaction (the barrier time).
	At float64
	// Seq orders messages from the same shard at the same time.
	Seq uint64
	// Shard identifies the emitting partition.
	Shard int32
	// Kind tags the interaction type (owner-defined).
	Kind int32
	// A and B are payload words (owner-defined).
	A, B int64
}

// SortMessages puts a barrier's messages into the deterministic
// (At, Seq, Shard) total order in which every exchange must fold them.
// The order is a property of the messages alone — independent of worker
// count, collection order, or goroutine interleaving — which is what
// makes a partitioned run reproduce the same combined event order as a
// sequential one. Ties on all three keys cannot occur between distinct
// messages (Seq is unique per shard and time).
func SortMessages(ms []Message) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Shard < b.Shard
	})
}

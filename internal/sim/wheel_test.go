package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestWheelOrderConformance is a randomized stress of the full event
// queue against a reference model: twenty rounds of checkWheelOrder
// drawn from one seeded stream.
func TestWheelOrderConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		checkWheelOrder(t, rng, round)
	}
}

// FuzzWheelOrder runs one checkWheelOrder round per fuzzed seed. The
// seed corpus (7 is TestWheelOrderConformance's stream) runs under
// plain go test; go test -fuzz FuzzWheelOrder explores further seeds.
func FuzzWheelOrder(f *testing.F) {
	for _, seed := range []int64{7, 1, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkWheelOrder(t, rand.New(rand.NewSource(seed)), 0)
	})
}

// checkWheelOrder schedules 100–299 events with delays spanning
// sub-tick to beyond the far horizon, cancels about a third of them,
// and checks that the rest fire in exactly the (time, seq) order a
// sorted list predicts. This exercises level-0 buckets, outer-level
// cascades, the far heap and its migration, the front registers, and
// tombstone sweeps together.
func checkWheelOrder(t *testing.T, rng *rand.Rand, round int) {
	t.Helper()
	type ref struct {
		at  float64
		seq int
	}
	// Delay magnitudes: same-tick, level 0, outer levels, far horizon.
	mags := []float64{0.01, 0.4, 3, 70, 4000, 300000, 2e8, 5e9}
	k := NewKernel()
	var fired []int
	var model []ref
	var timers []Timer
	seq := 0
	n := 100 + rng.Intn(200)
	var delays []float64
	for i := 0; i < n; i++ {
		var d float64
		if len(delays) > 0 && rng.Intn(4) == 0 {
			// Reuse an earlier delay bit for bit: equal-time events
			// must tie-break on sequence.
			d = delays[rng.Intn(len(delays))]
		} else {
			d = mags[rng.Intn(len(mags))] * (0.5 + rng.Float64())
		}
		delays = append(delays, d)
		at := d // scheduled from time 0
		id := seq
		timers = append(timers, k.At(d, func() { fired = append(fired, id) }))
		model = append(model, ref{at: at, seq: id})
		seq++
	}
	cancelled := map[int]bool{}
	for i := range timers {
		if rng.Intn(3) == 0 {
			timers[i].Stop()
			cancelled[i] = true
		}
	}
	var want []ref
	for _, m := range model {
		if !cancelled[m.seq] {
			want = append(want, m)
		}
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].at != want[b].at {
			return want[a].at < want[b].at
		}
		return want[a].seq < want[b].seq
	})
	k.Drain()
	if len(fired) != len(want) {
		t.Fatalf("round %d: fired %d events, want %d", round, len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i].seq {
			t.Fatalf("round %d: position %d fired seq %d, want %d", round, i, fired[i], want[i].seq)
		}
	}
}

// TestEqualTimeRegisterDisplacement pins the drain-batch merge order
// for entries displaced out of the front registers: two events with
// the exact same time enter the registers, later-scheduled earlier
// events displace them back into the batch one by one, and they must
// still fire in sequence order. (Regression: the batch merge once
// compared times only, assuming the incoming entry always carried the
// largest sequence — false for displaced register entries.)
func TestEqualTimeRegisterDisplacement(t *testing.T) {
	k := NewKernel()
	var order []int
	at := func(d float64, id int) { k.At(d, func() { order = append(order, id) }) }
	// Early register occupants, then two wheel events whose gather
	// advances the wheel position ahead of the clock.
	at(0.1, 0)
	at(0.2, 1)
	at(1.05, 2)
	e3 := k.At(1.07, func() { order = append(order, 3) })
	k.Step() // 0
	k.Step() // 1
	k.Step() // 2: the gather loaded both wheel events
	e3.Stop()
	k.Step() // consumes only the tombstone: batch empty, position ahead
	// Two equal-time events join the registers (4 has the earlier seq)…
	at(0.005, 4)
	at(0.005, 5)
	// …and two earlier events displace them into the batch: 5 first,
	// then 4, which must merge *before* its equal-time partner.
	at(0.001, 6)
	at(0.002, 7)
	k.Drain()
	want := []int{0, 1, 2, 6, 7, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v (equal-time displaced entries out of seq order)", order, want)
		}
	}
}

// TestWheelNestedScheduling schedules from inside event callbacks at
// mixed magnitudes, so inserts land behind the loaded batch, into the
// current tick, and across cascade boundaries while the wheel is mid
// drain.
func TestWheelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(100, func() {
		order = append(order, "a")
		k.At(0.001, func() { order = append(order, "a+eps") })   // same tick as now
		k.At(0.5, func() { order = append(order, "a+0.5") })     // near level 0
		k.At(50000, func() { order = append(order, "a+50000") }) // outer level
	})
	k.At(100.25, func() { order = append(order, "b") })
	k.At(101, func() { order = append(order, "c") })
	k.Drain()
	want := []string{"a", "a+eps", "b", "a+0.5", "c", "a+50000"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestFarFutureOrdering pins the far-heap path: events beyond the
// wheel horizon fire in schedule order after every near event, and
// cancelled far events never fire even after the position jumps out to
// their neighborhood.
func TestFarFutureOrdering(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(5e9, func() { order = append(order, "far-b") })
	k.At(4.9e9, func() { order = append(order, "far-a") })
	tm := k.At(4.95e9, func() { order = append(order, "far-cancelled") })
	k.At(1, func() { order = append(order, "near") })
	if !tm.Stop() {
		t.Fatal("Stop on pending far event should report true")
	}
	k.Drain()
	want := []string{"near", "far-a", "far-b"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestFarHeapCompaction cancels far-future events in bulk and checks
// the tombstone count is actually bounded by the periodic compaction.
func TestFarHeapCompaction(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		tm := k.At(5e9+float64(i), fn)
		tm.Stop()
	}
	if len(k.far) > 2*farCompactMin {
		t.Fatalf("far heap holds %d entries after cancelling all; compaction failed", len(k.far))
	}
	k.At(6e9, fn)
	k.Drain()
	if k.Now() != 6e9 {
		t.Fatalf("clock = %g, want 6e9", k.Now())
	}
}

// TestEqualTickAcrossLevels pins the cascade-before-drain rule: an
// event filed at an outer level whose window opens exactly at the next
// level-0 tick must merge into that tick's bucket in (time, seq) order.
func TestEqualTickAcrossLevels(t *testing.T) {
	k := NewKernel()
	var order []int
	// Scheduled first: lands at an outer level (delta spans levels).
	k.At(256, func() { order = append(order, 0) })
	// Force the wheel position to advance near the boundary, then add
	// a level-0 event at exactly the same time as the outer one.
	k.At(255.9, func() {
		k.At(0.1, func() { order = append(order, 1) })
	})
	k.Drain()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order %v, want [0 1] (outer-level event first: earlier seq)", order)
	}
}

// TestRegisterDisplacement drives the front registers through their
// displacement and cancel-by-seq paths: a burst of timers in
// descending-time order keeps displacing the register maximum into the
// wheel, and cancelling register occupants promotes the survivor.
func TestRegisterDisplacement(t *testing.T) {
	k := NewKernel()
	var order []int
	var timers []Timer
	for i := 0; i < 10; i++ {
		at := float64(10 - i)
		id := i
		timers = append(timers, k.At(at, func() { order = append(order, id) }))
	}
	// Cancel the two current register occupants (the earliest events).
	timers[9].Stop() // at=1
	timers[8].Stop() // at=2
	k.Drain()
	want := []int{7, 6, 5, 4, 3, 2, 1, 0} // at=3..10 in time order
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestLaneShrinksAfterBurst pins the lane-ring fix: a one-off burst of
// zero-delay events must not pin its high-water backing array forever —
// once drained back to small steady-state cycles, the retained capacity
// drops.
func TestLaneShrinksAfterBurst(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	const burst = 100000
	for i := 0; i < burst; i++ {
		k.At(0, fn)
	}
	k.Drain()
	// The first small cycle after the burst is evidence the high-water
	// capacity is no longer needed; its drain must release the backing
	// array instead of pinning ~2.3 MB for the rest of the run.
	for i := 0; i < 100; i++ {
		k.At(0, fn)
		k.Step()
	}
	if got := cap(k.lane); got > laneShrinkCap {
		t.Fatalf("lane capacity %d after steady state, want ≤ %d", got, laneShrinkCap)
	}
	// A sustained large lane, by contrast, keeps its capacity: no
	// shrink thrash while bursts are the steady state.
	for i := 0; i < 10*laneShrinkCap; i++ {
		k.At(0, fn)
	}
	k.Drain()
	before := cap(k.lane)
	for i := 0; i < 10*laneShrinkCap; i++ {
		k.At(0, fn)
	}
	k.Drain()
	if got := cap(k.lane); got != before {
		t.Fatalf("sustained burst capacity changed %d → %d; shrink is thrashing", before, got)
	}
}

// TestExtremeTimesClampOrdered exercises the maxTick clamp: events at
// astronomically distant times degrade to one shared bucket but still
// fire in exact (time, seq) order.
func TestExtremeTimesClampOrdered(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(1e18, func() { order = append(order, "b") })
	k.At(5e17, func() { order = append(order, "a") })
	k.At(1e18, func() { order = append(order, "c") }) // ties b on time, later seq
	k.At(1, func() { order = append(order, "near") })
	k.Drain()
	want := []string{"near", "a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestRunUntilWithRegisters pins Run's peek path across the front
// registers: the clock must stop exactly at `until` with pending
// register events intact.
func TestRunUntilWithRegisters(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(5, func() { fired++ })
	k.At(15, func() { fired++ })
	k.Run(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 10 {
		t.Fatalf("clock = %g, want 10", k.Now())
	}
	k.Run(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

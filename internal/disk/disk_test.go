package disk

import (
	"math"
	"testing"
	"testing/quick"

	"pmm/internal/sim"
)

func newTestManager(t *testing.T, numDisks, relCyl int) (*sim.Kernel, *Manager) {
	t.Helper()
	k := sim.NewKernel()
	p := DefaultParams()
	p.NumDisks = numDisks
	m, err := NewManager(k, p, relCyl, 42)
	if err != nil {
		t.Fatal(err)
	}
	return k, m
}

func TestSeekTimeCurve(t *testing.T) {
	p := DefaultParams()
	if p.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek must be free")
	}
	if got := p.SeekTime(100); math.Abs(got-0.617e-3*10) > 1e-12 {
		t.Fatalf("seek(100) = %g, want %g", got, 0.617e-3*10)
	}
	// Monotone in distance.
	if p.SeekTime(400) <= p.SeekTime(100) {
		t.Fatal("seek time not monotone")
	}
}

func TestTransferRate(t *testing.T) {
	p := DefaultParams()
	perPage := p.RotationTime / float64(p.PagesPerTrack)
	if got := p.TransferTime(6); math.Abs(got-6*perPage) > 1e-12 {
		t.Fatalf("transfer(6) = %g, want %g", got, 6*perPage)
	}
}

// access is one request of a test reader: non-sequential when file is
// 0, else page `page` of stream `file`.
type access struct {
	d          *Disk
	prio       float64
	cyl, pages int
	file       int64
	page       int
}

// readerFrame issues its accesses one after another, calling done, if
// set, with each access's index and outcome as it finishes.
type readerFrame struct {
	sim.FrameState
	p    *sim.Proc
	reqs []access
	req  Request
	done func(p *sim.Proc, i int, ok bool)
}

func (f *readerFrame) Step(m *sim.Machine, ok bool) sim.Status {
	for {
		i := int(f.PC)
		if i > 0 && f.done != nil {
			f.done(f.p, i-1, ok)
		}
		if i == len(f.reqs) {
			return m.Return(ok)
		}
		f.PC++
		a := f.reqs[i]
		var entered bool
		if a.file != 0 {
			entered = a.d.StartAccessSeq(f.p, a.prio, a.cyl, a.pages, a.file, a.page, &f.req)
		} else {
			entered = a.d.StartAccess(f.p, a.prio, a.cyl, a.pages, &f.req)
		}
		if entered {
			return sim.Park
		}
		ok = false
	}
}

// spawnReader spawns a process issuing reqs in order; see readerFrame.
func spawnReader(k *sim.Kernel, name string, done func(p *sim.Proc, i int, ok bool), reqs ...access) *sim.Proc {
	f := &readerFrame{reqs: reqs, done: done}
	f.p = k.Spawn(name, f)
	return f.p
}

func TestAccessTakesTime(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	var done float64
	spawnReader(k, "reader", func(p *sim.Proc, _ int, ok bool) {
		if !ok {
			t.Error("access interrupted unexpectedly")
		}
		done = p.Now()
	}, access{d: d, prio: 1, cyl: 700, pages: 6})
	k.Drain()
	min := DefaultParams().TransferTime(6)
	if done < min {
		t.Fatalf("access completed in %g s, below pure transfer %g", done, min)
	}
	if d.Meter().BusyTime() <= 0 {
		t.Fatal("disk busy time not accounted")
	}
	if d.Served() != 1 {
		t.Fatalf("served = %d", d.Served())
	}
}

func TestEDPriorityOrder(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	var order []string
	mark := func(name string) func(*sim.Proc, int, bool) {
		return func(*sim.Proc, int, bool) { order = append(order, name) }
	}
	// Occupy the disk, then queue low before high; high must win.
	spawnReader(k, "first", mark("first"), access{d: d, prio: 0, cyl: 750, pages: 6})
	k.At(0.001, func() {
		spawnReader(k, "low", mark("low"), access{d: d, prio: 9, cyl: 700, pages: 6})
		spawnReader(k, "high", mark("high"), access{d: d, prio: 1, cyl: 800, pages: 6})
	})
	k.Drain()
	if len(order) != 3 || order[1] != "high" || order[2] != "low" {
		t.Fatalf("ED order violated: %v", order)
	}
}

func TestElevatorTieBreak(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	var order []int
	// Head starts at 750 ascending. Queue equal-priority requests at
	// cylinders 760, 740, 790 while the disk is busy; the elevator should
	// serve 760, then 790 (continuing up), then 740.
	spawnReader(k, "first", nil, access{d: d, prio: 0, cyl: 755, pages: 6})
	k.At(0.0001, func() {
		for _, cyl := range []int{790, 740, 760} {
			spawnReader(k, "tie", func(*sim.Proc, int, bool) { order = append(order, cyl) },
				access{d: d, prio: 5, cyl: cyl, pages: 6})
		}
	})
	k.Drain()
	want := []int{760, 790, 740}
	if len(order) != len(want) {
		t.Fatalf("elevator order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("elevator order %v, want %v", order, want)
		}
	}
}

func TestSequentialStreamFasterThanRandom(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	var reqs []access
	for i := 0; i < 50; i++ {
		reqs = append(reqs, access{d: d, prio: 1, cyl: 700, pages: 6, file: 7, page: i * 6})
	}
	for i := 0; i < 50; i++ {
		reqs = append(reqs, access{d: d, prio: 1, cyl: 700 + i%3, pages: 6})
	}
	var streamTime, randomTime float64
	spawnReader(k, "stream", func(p *sim.Proc, i int, _ bool) {
		switch i {
		case 49: // the reader started at t=0
			streamTime = p.Now()
		case 99:
			randomTime = p.Now() - streamTime
		}
	}, reqs...)
	k.Drain()
	// After the first block, every streamed access costs pure transfer.
	wantStream := 49*DefaultParams().TransferTime(6) + DefaultParams().MeanAccessTime(0, 6) + DefaultParams().RotationTime/2
	if streamTime > wantStream {
		t.Fatalf("streaming took %.3fs, analytic bound %.3fs", streamTime, wantStream)
	}
	if streamTime >= randomTime {
		t.Fatalf("streaming (%.3fs) should beat random (%.3fs)", streamTime, randomTime)
	}
	if d.SeqHits() < 45 {
		t.Fatalf("expected ≥45 stream hits, got %d", d.SeqHits())
	}
}

// interleaved returns round-robin sequential accesses over streams
// 1..files, rounds blocks each.
func interleaved(d *Disk, files int64, rounds int) []access {
	var reqs []access
	for i := 0; i < rounds; i++ {
		for f := int64(1); f <= files; f++ {
			reqs = append(reqs, access{d: d, prio: 1, cyl: 700, pages: 6, file: f, page: i * 6})
		}
	}
	return reqs
}

func TestStreamThrashWithManyStreams(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	// Three interleaved streams exceed the cache's two slots: hits drop.
	spawnReader(k, "thrash", nil, interleaved(d, 3, 30)...)
	k.Drain()
	if d.SeqHits() > 10 {
		t.Fatalf("three-way interleave should thrash the cache; hits = %d", d.SeqHits())
	}
}

func TestTwoStreamsBothHit(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	spawnReader(k, "dual", nil, interleaved(d, 2, 30)...)
	k.Drain()
	if d.SeqHits() < 50 {
		t.Fatalf("two interleaved streams should both hit; hits = %d", d.SeqHits())
	}
}

func TestInterruptWhileQueued(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	spawnReader(k, "occupier", nil, access{d: d, prio: 0, cyl: 700, pages: 90})
	var got *bool
	victim := spawnReader(k, "victim", func(_ *sim.Proc, _ int, ok bool) { got = &ok },
		access{d: d, prio: 1, cyl: 710, pages: 6})
	k.At(0.001, func() { victim.Interrupt() })
	k.Drain()
	if got == nil || *got {
		t.Fatal("queued access should report interruption")
	}
}

// TestInterruptMidTransferResumesAtOnce pins the direct-service wait: an
// interrupt resumes the caller at once while the transfer runs on, and
// the transfer's completion then wakes nobody — not even the same caller
// parked by then on another disk's transfer.
func TestInterruptMidTransferResumesAtOnce(t *testing.T) {
	k, m := newTestManager(t, 2, 100)
	d0, d1 := m.Disk(0), m.Disk(1)
	first, second := true, false
	var interruptedAt, doneAt float64
	reader := spawnReader(k, "reader", func(p *sim.Proc, i int, ok bool) {
		if i == 0 {
			first, interruptedAt = ok, p.Now()
		} else {
			second, doneAt = ok, p.Now()
		}
	}, access{d: d0, prio: 0, cyl: 700, pages: 30}, access{d: d1, prio: 0, cyl: 700, pages: 90})
	k.At(0.001, func() { reader.Interrupt() })
	k.Drain()
	if first || interruptedAt != 0.001 {
		t.Fatalf("interrupted transfer returned %v at %g, want false at 0.001", first, interruptedAt)
	}
	if min := 0.001 + DefaultParams().TransferTime(90); !second || doneAt < min {
		t.Fatalf("second transfer returned %v at %g, want true no earlier than %g", second, doneAt, min)
	}
	if d0.Served() != 1 || d0.Meter().BusyTime() < DefaultParams().TransferTime(30) {
		t.Fatalf("interrupted transfer not completed on the disk: served %d, busy %g", d0.Served(), d0.Meter().BusyTime())
	}
}

func TestUtilizationWindows(t *testing.T) {
	k, m := newTestManager(t, 2, 100)
	spawnReader(k, "user", nil, access{d: m.Disk(0), prio: 1, cyl: 700, pages: 6})
	k.Run(10)
	zero := []float64{0, 0}
	if m.MaxUtilization(0, zero) <= 0 {
		t.Fatal("max utilization should be positive")
	}
	if m.AvgUtilization(0, zero) >= m.MaxUtilization(0, zero) {
		t.Fatal("avg across an idle disk must be below max")
	}
	snap := m.BusySnapshot()
	if len(snap) != 2 || snap[0] <= 0 || snap[1] != 0 {
		t.Fatalf("busy snapshot %v", snap)
	}
}

func TestRelationPlacementWithinBand(t *testing.T) {
	_, m := newTestManager(t, 1, 200)
	d := m.Disk(0)
	e1, err := d.PlaceRelation(900) // 10 cylinders
	if err != nil {
		t.Fatal(err)
	}
	lo := (DefaultParams().NumCylinders - 200) / 2
	if e1.StartCylinder() < lo || e1.StartCylinder() >= lo+200 {
		t.Fatalf("relation placed at %d, outside middle band", e1.StartCylinder())
	}
	if e1.Region() != RegionRelation {
		t.Fatal("wrong region")
	}
	// Fill the band; then placement must fail.
	if _, err := d.PlaceRelation(200*90 - 900); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PlaceRelation(90); err == nil {
		t.Fatal("placement into a full band should fail")
	}
}

func TestTempAllocPreferredDisk(t *testing.T) {
	_, m := newTestManager(t, 4, 100)
	e := m.AllocTemp(500, 2)
	if e.Disk().ID() != 2 {
		t.Fatalf("temp landed on disk %d, want 2", e.Disk().ID())
	}
	if r := e.Region(); r != RegionTempInner && r != RegionTempOuter {
		t.Fatalf("temp in region %v", r)
	}
	e.Free()
}

func TestTempAllocFreeReuse(t *testing.T) {
	_, m := newTestManager(t, 1, 1400) // tiny temp bands: 100 cylinders total
	d := m.Disk(0)
	free0 := d.tempInner.freeCylinders() + d.tempOuter.freeCylinders()
	var extents []*Extent
	for i := 0; i < 5; i++ {
		extents = append(extents, m.AllocTemp(800, 0))
	}
	for _, e := range extents {
		e.Free()
	}
	if got := d.tempInner.freeCylinders() + d.tempOuter.freeCylinders(); got != free0 {
		t.Fatalf("temp cylinders leaked: %d, want %d", got, free0)
	}
}

func TestTempOvercommitDoesNotFail(t *testing.T) {
	_, m := newTestManager(t, 1, 1400)
	var extents []*Extent
	// Demand far more temp space than exists.
	for i := 0; i < 50; i++ {
		e := m.AllocTemp(900, 0)
		if e == nil {
			t.Fatal("AllocTemp returned nil")
		}
		extents = append(extents, e)
	}
	for _, e := range extents {
		e.Free() // must not panic even for overcommitted extents
	}
}

func TestExtentCylinderOf(t *testing.T) {
	_, m := newTestManager(t, 1, 200)
	e, err := m.Disk(0).PlaceRelation(250)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.CylinderOf(0); got != e.StartCylinder() {
		t.Fatalf("page 0 at cylinder %d", got)
	}
	if got := e.CylinderOf(249); got != e.StartCylinder()+2 {
		t.Fatalf("page 249 at cylinder %d, want %d", got, e.StartCylinder()+2)
	}
	// Out-of-range pages clamp rather than escape the extent.
	if got := e.CylinderOf(10_000); got != e.StartCylinder()+2 {
		t.Fatalf("clamped page at cylinder %d", got)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	_, m := newTestManager(t, 1, 100)
	e := m.AllocTemp(90, 0)
	e.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	e.Free()
}

func TestRegionAllocProperty(t *testing.T) {
	// Property: any interleaving of allocs and frees conserves cylinders
	// and never hands out overlapping spans.
	f := func(ops []uint8) bool {
		ra := newRegionAlloc(0, 500)
		type held struct{ start, cyls int }
		var live []held
		total := 500
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				cyls := int(op%37) + 1
				if start, ok := ra.alloc(cyls); ok {
					for _, h := range live {
						if start < h.start+h.cyls && h.start < start+cyls {
							return false // overlap
						}
					}
					live = append(live, held{start, cyls})
				}
			} else {
				i := int(op) % len(live)
				ra.release(live[i].start, live[i].cyls)
				live = append(live[:i], live[i+1:]...)
			}
		}
		used := 0
		for _, h := range live {
			used += h.cyls
		}
		return ra.freeCylinders()+used == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package runner

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// PointTrace is the per-point block of a SweepTrace: how much work one
// grid point actually cost.
type PointTrace struct {
	Key         string  `json:"key"`
	Reps        int     `json:"reps"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	WallSeconds float64 `json:"wall_seconds"` // simulated jobs only
}

// SweepTrace is the structured telemetry of one sweep: per-point
// replicate counts, cache traffic, and wall-clock cost, plus totals.
// It reports how the sweep executed, never what it computed — results
// are unchanged by its presence.
type SweepTrace struct {
	Points      []PointTrace `json:"points"`
	TotalReps   int          `json:"total_reps"`
	CacheHits   int          `json:"cache_hits"`
	CacheMisses int          `json:"cache_misses"`
	WallSeconds float64      `json:"wall_seconds"`
	Rounds      int          `json:"rounds"` // scheduling rounds (1 for fixed-Reps sweeps)
}

// Progress is the live telemetry hub of a sweep. Attach one to
// Spec.Progress to stream per-job completion lines (with a remaining-
// work ETA) to Stream and to accumulate a SweepTrace. A Progress is
// safe for the worker pool's concurrency; a nil *Progress disables
// everything. Scheduling rounds append, so one Progress can span the
// adaptive controller's successive rounds — or several sweeps, whose
// jobs then share one ETA denominator.
type Progress struct {
	// Stream, when non-nil, receives one line per completed job and a
	// final summary line (typically os.Stderr).
	Stream io.Writer

	// Every, when > 0, throttles streaming to every Nth completion
	// (the final job of a round always streams). 0 streams every job.
	Every int

	mu        sync.Mutex
	start     time.Time
	scheduled int
	done      int
	hits      int
	misses    int
	simWall   time.Duration
	rounds    int
	points    map[string]*PointTrace
	order     []string
}

// NewProgress returns a Progress streaming to w (nil: collect only).
func NewProgress(w io.Writer) *Progress {
	return &Progress{Stream: w, points: make(map[string]*PointTrace)}
}

// beginRound registers n scheduled jobs (one adaptive round, or the
// whole grid of a fixed sweep) into the ETA denominator.
func (p *Progress) beginRound(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.points == nil {
		p.points = make(map[string]*PointTrace)
	}
	if p.start.IsZero() {
		p.start = time.Now()
	}
	p.scheduled += n
	p.rounds++
	p.mu.Unlock()
}

// jobDone records one finished (point, replicate) job. hit marks a
// cache hit (wall is then the lookup cost, excluded from WallSeconds);
// wall is the job's wall-clock duration.
func (p *Progress) jobDone(key string, rep int, hit bool, wall time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	pt := p.points[key]
	if pt == nil {
		pt = &PointTrace{Key: key}
		p.points[key] = pt
		p.order = append(p.order, key)
	}
	pt.Reps++
	if hit {
		pt.CacheHits++
		p.hits++
	} else {
		pt.CacheMisses++
		p.misses++
		pt.WallSeconds += wall.Seconds()
		p.simWall += wall
	}
	p.done++
	// The line is written under p.mu: workers finish concurrently, and
	// Stream (a bytes.Buffer, a terminal) need not be safe for that.
	if p.Stream != nil && (p.Every <= 0 || p.done%p.Every == 0 || p.done == p.scheduled) {
		fmt.Fprintln(p.Stream, p.formatLine(key, rep, hit, wall))
	}
	p.mu.Unlock()
}

// formatLine renders one completion line; callers hold p.mu.
func (p *Progress) formatLine(key string, rep int, hit bool, wall time.Duration) string {
	elapsed := time.Since(p.start)
	how := fmt.Sprintf("%.2fs", wall.Seconds())
	if hit {
		how = "cached"
	}
	line := fmt.Sprintf("sweep %d/%d %s rep %d %s", p.done, p.scheduled, key, rep, how)
	if p.done < p.scheduled && p.done > 0 {
		eta := time.Duration(float64(elapsed) / float64(p.done) * float64(p.scheduled-p.done))
		line += fmt.Sprintf(" | elapsed %s eta %s", elapsed.Round(time.Second), eta.Round(time.Second))
	} else {
		line += fmt.Sprintf(" | done in %s", elapsed.Round(time.Second))
	}
	return line
}

// Trace snapshots the accumulated sweep telemetry, points in
// first-completion order.
func (p *Progress) Trace() *SweepTrace {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t := &SweepTrace{
		TotalReps:   p.done,
		CacheHits:   p.hits,
		CacheMisses: p.misses,
		WallSeconds: p.simWall.Seconds(),
		Rounds:      p.rounds,
	}
	for _, key := range p.order {
		t.Points = append(t.Points, *p.points[key])
	}
	return t
}

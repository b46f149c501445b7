package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// span is one host-time interval at a layer boundary.
type span struct {
	ID     int
	Parent int // -1 for a root
	Name   string
	Cat    string // layer: workload, simulation, setup, slice, finish, driver, job
	Start  time.Time
	End    time.Time
	Lane   int // display row in the span file
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps the spans of one run in memory until they are written
// out with the run's id. It is safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span under parent (-1: root) and returns its id.
func (l *spanLog) begin(name, cat string, parent int) int {
	return l.add(name, cat, parent, time.Now(), time.Time{})
}

// end closes span id now.
func (l *spanLog) end(id int) {
	t := time.Now()
	l.mu.Lock()
	l.spans[id].End = t
	l.mu.Unlock()
}

// add records a span with known bounds (a zero end is closed later).
func (l *spanLog) add(name, cat string, parent int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Cat: cat, Start: start, End: end})
	return id
}

// snapshot returns a copy of the spans.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.spans)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (overlapping children count once), indexed by id.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]time.Time) int { return x[0].Compare(y[0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0].After(curB):
			total += curB.Sub(curA)
			curA, curB = v[0], v[1]
		case v[1].After(curB):
			curB = v[1]
		}
	}
	if len(iv) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// selfByCat sums self time per span category.
func selfByCat(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Cat] += self[i]
	}
	return out
}

// assignLanes gives overlapping spans of one category distinct display
// rows, so a Perfetto view keeps every row properly nested.
func assignLanes(spans []span, cat string, firstLane int) {
	var idx []int
	for i, s := range spans {
		if s.Cat == cat {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int) int { return spans[a].Start.Compare(spans[b].Start) })
	var laneEnd []time.Time
	for _, i := range idx {
		lane := -1
		for l, e := range laneEnd {
			if !spans[i].Start.Before(e) {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, time.Time{})
		}
		laneEnd[lane] = spans[i].End
		spans[i].Lane = firstLane + lane
	}
}

// chromeEvent is one Chrome trace-event record ("X": complete span).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// Perfetto. Times are microseconds from the first span's start.
func writeChrome(w io.Writer, runID string, spans []span) error {
	if len(spans) == 0 {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	origin := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts:  float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{
				"run_id": runID, "span_id": s.ID, "parent": s.Parent,
				"self_us": float64(self[i].Nanoseconds()) / 1e3,
			},
		})
	}
	bw := bufio.NewWriter(w)
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	if err := json.NewEncoder(bw).Encode(doc); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return bw.Flush()
}

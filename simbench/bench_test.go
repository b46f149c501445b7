package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"pmm"
)

// smallFig3 is a short fig3 configuration for the tests.
func smallFig3(kind pmm.PolicyKind) pmm.Config {
	cfg := fig3.configs(3)[0]
	cfg.Policy = pmm.PolicyConfig{Kind: kind}
	cfg.Duration = 1800
	return cfg
}

func TestSinkLeavesDigestUnchanged(t *testing.T) {
	for _, kind := range []pmm.PolicyKind{pmm.PolicyMinMax, pmm.PolicyPMM} {
		cfg := smallFig3(kind)
		plain, err := pmm.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := pmm.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		steps := sys.Kernel().Steps()

		res, sink, err := runSliced(&spanLog{}, -1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := digestOf([]*pmm.Results{plain})
		got, _ := digestOf([]*pmm.Results{res})
		if got != want {
			t.Errorf("%s: sliced run with sink has digest %s, one-shot pmm.Run %s", cfg.PolicyName(), got, want)
		}
		if sink.events() != steps {
			t.Errorf("%s: sink saw %d events, kernel stepped %d", cfg.PolicyName(), sink.events(), steps)
		}
		if sink.cpuBursts() == 0 || sink.diskAccesses() == 0 {
			t.Errorf("%s: no CPU bursts (%d) or disk accesses (%d) attributed", cfg.PolicyName(), sink.cpuBursts(), sink.diskAccesses())
		}
	}
}

// The sink charges all host time between a slice's begin and end to
// event kinds (or to the stretch before the first dispatch), so its
// total must match the slice and finish spans measured around
// Kernel.Run and System.Run. The spans also include the call overhead
// and, for finish, building Results, so the tolerance is 5% of the
// traced time plus 2 ms.
func TestSinkSelfTimesSumToSliceWall(t *testing.T) {
	spans := &spanLog{}
	_, sink, err := runSliced(spans, -1, smallFig3(pmm.PolicyMinMax))
	if err != nil {
		t.Fatal(err)
	}
	var sliceWall time.Duration
	for _, s := range spans.snapshot() {
		if s.Cat == "slice" || s.Cat == "finish" {
			sliceWall += s.dur()
		}
	}
	attributed := time.Duration(sink.preNs)
	for _, ns := range sink.selfNs {
		attributed += time.Duration(ns)
	}
	tol := sliceWall/20 + 2*time.Millisecond
	if diff := sliceWall - attributed; diff < 0 || diff > tol {
		t.Errorf("sink attributed %v of %v traced slice wall (tolerance %v)", attributed, sliceWall, tol)
	}
}

func TestTailRule(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
		short  bool
	}{
		{n: 5, p: 50, value: 3, beyond: 2, short: true},
		{n: 19, p: 50, value: 10, beyond: 9, short: true},
		{n: 20, p: 50, value: 10, beyond: 10},
		{n: 99, p: 50, value: 50, beyond: 49},
		{n: 100, p: 90, value: 90, beyond: 10},
		{n: 999, p: 90, value: 900, beyond: 99},
		{n: 1000, p: 99, value: 990, beyond: 10},
		{n: 10000, p: 99.9, value: 9990, beyond: 10},
	} {
		tl := tailOf(samples(c.n))
		if tl.Percentile != c.p || tl.Beyond != c.beyond || tl.Short != c.short || tl.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g with %d beyond (short %v)", c.n, tl, c.p, c.beyond, c.short)
		}
		if !c.short && tl.Value != c.value {
			t.Errorf("n=%d: value %g, want %g", c.n, tl.Value, c.value)
		}
		if s := tl.String(); !strings.Contains(s, "beyond") || !strings.Contains(s, "samples") {
			t.Errorf("n=%d: %q does not state the counts", c.n, s)
		}
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the registry must
// agree with.
type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workloads []struct{ Name, Why string }          `json:"workloads"`
}

func TestMetricNames(t *testing.T) {
	validName := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName.MatchString(d.Name) || !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64, starting with a letter or digit", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s has unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the benchmark reports %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, benchmark reports %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, benchmark reports %+v", i, m, d)
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a --workload of the benchmark", w.Name)
		}
	}
}

func TestResultLineShape(t *testing.T) {
	o := newOutcome()
	o.attempted = 3
	for _, d := range endToEnd {
		o.set(d.Name, 1.25)
	}
	var buf bytes.Buffer
	if err := o.emit(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result line keys: %s", lines[len(lines)-1])
	}
	delete(o.values, "wall_s")
	if err := o.emit(&buf, endToEnd); err == nil {
		t.Error("emit accepted a metric without a value")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 0, Parent: -1, Start: at(0), End: at(100)},
		{ID: 1, Parent: 0, Start: at(10), End: at(40)},
		{ID: 2, Parent: 0, Start: at(30), End: at(60)},  // overlaps 1
		{ID: 3, Parent: 0, Start: at(90), End: at(120)}, // runs past the parent
	}
	self := selfTimes(spans)
	if self[0] != 40*time.Millisecond {
		t.Errorf("parent self time %v, want 40ms", self[0])
	}
	if self[1] != 30*time.Millisecond {
		t.Errorf("leaf self time %v, want its duration", self[1])
	}
}

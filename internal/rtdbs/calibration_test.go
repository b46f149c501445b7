package rtdbs

import (
	"math"
	"testing"
)

// TestSoloExecutionMatchesStandAlone checks the simulator against the
// analytic stand-alone estimator: at a trickle arrival rate with maximum
// memory available, execution time must track StandAlone closely. This
// pins the deadline model (Deadline = StandAlone·Slack + Arrival) to the
// actual execution cost.
func TestSoloExecutionMatchesStandAlone(t *testing.T) {
	cfg := baselineConfig(PolicyConfig{Kind: PolicyMax}, 0.002, 20000)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if r.Completed < 10 {
		t.Fatalf("only %d completions", r.Completed)
	}
	if r.MissRatio > 0.01 {
		t.Fatalf("solo queries missing deadlines: ratio %.3f", r.MissRatio)
	}
	// Average stand-alone time of the workload: estimate via generator.
	gen := sys.Generator()
	var sumSA float64
	const n = 500
	for i := 0; i < n; i++ {
		q := gen.NewQuery(nil, 0, 0)
		sumSA += q.StandAlone
	}
	meanSA := sumSA / n
	t.Logf("avg exec=%.1fs avg standalone=%.1fs ratio=%.2f (wait=%.1f resp=%.1f)",
		r.AvgExec, meanSA, r.AvgExec/meanSA, r.AvgWait, r.AvgResponse)
	if ratio := r.AvgExec / meanSA; math.Abs(ratio-1) > 0.25 {
		t.Fatalf("solo execution %.1fs vs stand-alone %.1fs (ratio %.2f): cost models diverge",
			r.AvgExec, meanSA, ratio)
	}
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"pmm"
)

// checkResults returns the invariants a finished run's Results break:
// terminations must split into completions and misses, every ratio and
// utilization must lie in [0, 1], and no IO count may be negative.
func checkResults(r *pmm.Results) []string {
	var bad []string
	if r.Terminated != r.Completed+r.Missed {
		bad = append(bad, fmt.Sprintf("Terminated %d != Completed %d + Missed %d", r.Terminated, r.Completed, r.Missed))
	}
	unit := func(name string, v float64) {
		if !(v >= 0 && v <= 1) {
			bad = append(bad, fmt.Sprintf("%s = %v outside [0,1]", name, v))
		}
	}
	unit("MissRatio", r.MissRatio)
	unit("LossRatio", r.LossRatio)
	unit("CPUUtil", r.CPUUtil)
	unit("AvgDiskUtil", r.AvgDiskUtil)
	unit("MaxDiskUtil", r.MaxDiskUtil)
	for i, q := range r.MissBySlackQuartile {
		unit(fmt.Sprintf("MissBySlackQuartile[%d]", i), q)
	}
	for _, c := range r.PerClass {
		unit("PerClass["+c.Name+"].MissRatio", c.MissRatio)
	}
	io := r.IOBreakdown
	if io.RelRead < 0 || io.SpoolWrite < 0 || io.SpoolRead < 0 {
		bad = append(bad, fmt.Sprintf("negative IO breakdown %+v", io))
	}
	for name, v := range map[string]float64{
		"AvgWait": r.AvgWait, "AvgExec": r.AvgExec, "AvgResponse": r.AvgResponse,
		"AvgMPL": r.AvgMPL, "AvgQueueDelay": r.AvgQueueDelay, "AvgIOAmplification": r.AvgIOAmplification,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, fmt.Sprintf("%s = %v", name, v))
		}
	}
	return bad
}

// digest is a running SHA-256 over a sequence of Results.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add folds one result in. Its JSON encoding is the fingerprint: every
// field, floats at full round-trip precision.
func (d *digest) add(r *pmm.Results) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("digest: %w", err)
	}
	d.h.Write(raw)
	d.h.Write([]byte{'\n'})
	return nil
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestOf fingerprints a whole result list.
func digestOf(rs []*pmm.Results) (string, error) {
	d := newDigest()
	for _, r := range rs {
		if err := d.add(r); err != nil {
			return "", err
		}
	}
	return d.String(), nil
}

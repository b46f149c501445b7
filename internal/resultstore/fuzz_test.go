package resultstore_test

import (
	"testing"

	"pmm"
	"pmm/internal/resultstore"
)

// FuzzCanonicalConfig maps fuzzed fields onto the baseline preset and
// checks the content-addressing contract on whatever comes out:
// Validate never panics; for a valid config CanonicalText never panics
// and is deterministic; and a config keys exactly like its own
// canonical form, so canonicalizing before storing never changes the
// address.
func FuzzCanonicalConfig(f *testing.F) {
	f.Add(int64(1), 36000.0, 40.0, 2560, 1.1, 40, 10, 6, uint8(3), 0, 0, 0, 0.0, 0, 0.06, 0, uint8(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(int64(7), 600.0, 0.0, 0, 0.0, 0, 0, 0, uint8(1), 10, 3, 2, 2.5, 64, 0.1, 1000, uint8(1), 3600.0, 0.5, 10.0, 0.0)
	f.Add(int64(-3), -1.0, 20.0, 800, 1.2, 20, 4, 1, uint8(4), -1, 1, 9, -1.0, -5, 0.0, 1, uint8(2), 0.0, 1.0, 0.0, 0.7)
	f.Fuzz(func(t *testing.T, seed int64, duration, mips float64, memory int, fudge float64,
		tpp, disks, block int, kind uint8, mpl, tenants, shards int, sync float64, admit int,
		rate float64, population int, mod uint8, period, amplitude, phase, utilLow float64) {
		c := pmm.BaselineConfig()
		c.Seed, c.Duration, c.CPUMips, c.MemoryPages = seed, duration, mips, memory
		c.FudgeFactor, c.TuplesPerPage = fudge, tpp
		c.Disk.NumDisks, c.Disk.BlockSize = disks, block
		c.Policy = pmm.PolicyConfig{Kind: pmm.PolicyKind(kind % 6), MPLLimit: mpl}
		c.Policy.PMM.UtilLow = utilLow
		c.Tenants, c.Shards, c.SyncInterval, c.AdmitQueue = tenants, shards, sync, admit
		cl := &c.Classes[0]
		cl.ArrivalRate, cl.Population = rate, population
		cl.Modulation = pmm.Modulation{Kind: pmm.ModKind(mod % 3), Period: period, Amplitude: amplitude, Phase: phase}

		if c.Validate() != nil {
			return
		}
		text := resultstore.CanonicalText(c)
		if again := resultstore.CanonicalText(c); again != text {
			t.Fatalf("canonical text not deterministic:\n%s\nvs\n%s", text, again)
		}
		if a, b := resultstore.KeyFor(c), resultstore.KeyFor(c.Canonical()); a != b {
			t.Fatalf("config and its canonical form key differently:\n%s\nvs\n%s",
				text, resultstore.CanonicalText(c.Canonical()))
		}
	})
}

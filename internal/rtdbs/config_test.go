package rtdbs

import (
	"strings"
	"testing"
)

// TestNegativeConfigRejected pins that a negative value is an error,
// never a silent default: each row sets one defaulted field negative,
// and Simulate must refuse the config, single-tenant and multi-tenant
// alike, naming the field.
func TestNegativeConfigRejected(t *testing.T) {
	base := baselineConfig(PolicyConfig{Kind: PolicyMinMax}, 0.001, 0)
	if _, err := New(base); err != nil {
		t.Fatalf("zero fields must select defaults, got %v", err)
	}
	rows := []struct {
		field string
		set   func(*Config)
	}{
		{"Duration", func(c *Config) { c.Duration = -3600 }},
		{"CPUMips", func(c *Config) { c.CPUMips = -40 }},
		{"MemoryPages", func(c *Config) { c.MemoryPages = -1 }},
		{"FudgeFactor", func(c *Config) { c.FudgeFactor = -1.1 }},
		{"TuplesPerPage", func(c *Config) { c.TuplesPerPage = -40 }},
		{"Disk.NumDisks", func(c *Config) { c.Disk.NumDisks = -10 }},
		{"Disk.SeekFactorMS", func(c *Config) { c.Disk.SeekFactorMS = -0.617 }},
		{"Disk.RotationTime", func(c *Config) { c.Disk.RotationTime = -0.0167 }},
		{"Disk.NumCylinders", func(c *Config) { c.Disk.NumCylinders = -1500 }},
		{"Disk.CylinderSize", func(c *Config) { c.Disk.CylinderSize = -90 }},
		{"Disk.PagesPerTrack", func(c *Config) { c.Disk.PagesPerTrack = -4 }},
		{"Disk.BlockSize", func(c *Config) { c.Disk.BlockSize = -6 }},
	}
	for _, row := range rows {
		for _, tenants := range []int{0, 2} {
			cfg := base
			cfg.Tenants = tenants
			row.set(&cfg)
			_, err := Simulate(cfg, nil)
			if err == nil {
				t.Errorf("%s < 0, %d tenants: Simulate accepted the config", row.field, tenants)
			} else if !strings.Contains(err.Error(), row.field) {
				t.Errorf("%s < 0, %d tenants: error %q does not name the field", row.field, tenants, err)
			}
		}
	}
}

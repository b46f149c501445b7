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

// TestMemoryBelowMinWorkspaceRejected: a buffer pool (per cell, for a
// multi-tenant run) smaller than the largest query's minimum workspace
// is rejected at construction instead of running to 100% misses, and a
// pool of exactly that size is accepted.
func TestMemoryBelowMinWorkspaceRejected(t *testing.T) {
	base := baselineConfig(PolicyConfig{Kind: PolicyMinMax}, 0.001, 600)
	sys, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	need, class := sys.Generator().LargestMinMem()
	if need < 3 || class != "Medium" {
		t.Fatalf("largest minimum workspace %d pages (class %q)", need, class)
	}
	rows := []struct {
		name            string
		tenants, memory int
		accept          bool
	}{
		{"one page", 0, 1, false},
		{"3 tenants of 10 pages", 3, 10, false},
		{"one page short", 0, need - 1, false},
		{"3 tenants one page short", 3, need - 1, false},
		{"exact minimum", 0, need, true},
		{"3 tenants at the exact minimum", 3, need, true},
	}
	for _, row := range rows {
		cfg := base
		cfg.Tenants, cfg.MemoryPages = row.tenants, row.memory
		_, err := Simulate(cfg, nil)
		switch {
		case row.accept && err != nil:
			t.Errorf("%s: rejected: %v", row.name, err)
		case !row.accept && err == nil:
			t.Errorf("%s: Simulate accepted %d pages below the %d-page minimum", row.name, row.memory, need)
		case !row.accept && !strings.Contains(err.Error(), "MemoryPages"):
			t.Errorf("%s: error %q does not name MemoryPages", row.name, err)
		}
	}
}

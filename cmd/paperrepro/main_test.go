package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pmm/internal/exp"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                              string
		reps, maxReps                     int
		horizon, precision                float64
		workers, tenants, shards, clients int
		want                              string // substring of the error, "" for accepted
	}{
		{"defaults", 1, 32, 0, 0, 0, 0, 0, 0, ""},
		{"explicit", 3, 64, 600, 0.05, 4, 3, 2, 1000000, ""},
		{"zero reps", 0, 32, 0, 0, 0, 0, 0, 0, "-reps"},
		{"negative reps", -2, 32, 0, 0, 0, 0, 0, 0, "-reps"},
		{"zero max-reps", 1, 0, 0, 0, 0, 0, 0, 0, "-max-reps"},
		{"negative horizon", 1, 32, -5, 0, 0, 0, 0, 0, "-horizon"},
		{"NaN horizon", 1, 32, math.NaN(), 0, 0, 0, 0, 0, "-horizon"},
		{"negative precision", 1, 32, 0, -0.1, 0, 0, 0, 0, "-precision"},
		{"negative workers", 1, 32, 0, 0, -1, 0, 0, 0, "-workers"},
		{"negative tenants", 1, 32, 0, 0, 0, -3, 0, 0, "-tenants"},
		{"negative shards", 1, 32, 0, 0, 0, 0, -2, 0, "-shards"},
		{"negative clients", 1, 32, 0, 0, 0, 0, 0, -1, "-clients"},
	} {
		err := checkFlags(tc.reps, tc.maxReps, tc.horizon, tc.precision,
			tc.workers, tc.tenants, tc.shards, tc.clients)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}

func TestMissingIDs(t *testing.T) {
	reports := []*exp.Report{{ID: "fig3"}, {ID: "table7"}}
	for _, tc := range []struct {
		want []string
		miss []string
	}{
		{nil, nil},
		{[]string{"fig3", "table7"}, nil},
		{[]string{"fig3", "nosuchfig"}, []string{"nosuchfig"}},
		{[]string{"zz", "aa", "table7"}, []string{"aa", "zz"}},
	} {
		want := map[string]bool{}
		for _, id := range tc.want {
			want[id] = true
		}
		if got := missingIDs(want, reports); !reflect.DeepEqual(got, tc.miss) {
			t.Errorf("-only %v: missing %v, want %v", tc.want, got, tc.miss)
		}
	}
}

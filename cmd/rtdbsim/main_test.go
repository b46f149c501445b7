package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hours  float64
		rate   float64
		memory int
		disks  int
		mpl    int
		want   string // substring of the error, "" for accepted
	}{
		{"defaults", 10, 0, 0, 0, 0, ""},
		{"explicit", 0.3, 0.06, 2560, 10, 5, ""},
		{"zero hours", 0, 0, 0, 0, 0, "-hours"},
		{"negative hours", -1, 0, 0, 0, 0, "-hours"},
		{"NaN hours", math.NaN(), 0, 0, 0, 0, "-hours"},
		{"negative rate", 10, -1, 0, 0, 0, "-rate"},
		{"negative memory", 10, 0, -1, 0, 0, "-memory"},
		{"negative disks", 10, 0, 0, -2, 0, "-disks"},
		{"negative mpl", 10, 0, 0, 0, -3, "-mpl"},
	} {
		err := checkFlags(tc.hours, tc.rate, tc.memory, tc.disks, tc.mpl)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}

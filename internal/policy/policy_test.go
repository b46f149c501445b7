package policy

import (
	"testing"
	"testing/quick"

	"pmm/internal/query"
)

// q builds a test query with the given deadline and memory needs.
func q(id int64, deadline float64, min, max int) *query.Query {
	return &query.Query{ID: id, Deadline: deadline, MinMem: min, MaxMem: max}
}

// checkInvariants verifies the allocation contract: grants aligned with
// input, each 0 or within [min, max], total within capacity.
func checkInvariants(t *testing.T, name string, present []*query.Query, grants []int, total int) {
	t.Helper()
	if len(grants) != len(present) {
		t.Fatalf("%s: %d grants for %d queries", name, len(grants), len(present))
	}
	sum := 0
	for i, g := range grants {
		if g != 0 && (g < present[i].MinMem || g > present[i].MaxMem) {
			t.Fatalf("%s: grant %d outside [%d,%d]", name, g, present[i].MinMem, present[i].MaxMem)
		}
		sum += g
	}
	if sum > total {
		t.Fatalf("%s: granted %d > total %d", name, sum, total)
	}
}

func TestMaxGrantsAllOrNothing(t *testing.T) {
	present := []*query.Query{
		q(1, 10, 40, 1200), q(2, 20, 40, 1200), q(3, 30, 40, 700),
	}
	grants := Max{}.Allocate(present, 2560, &Scratch{})
	checkInvariants(t, "Max", present, grants, 2560)
	if grants[0] != 1200 || grants[1] != 1200 {
		t.Fatalf("two max demands fit: %v", grants)
	}
	if grants[2] != 0 {
		t.Fatalf("third query cannot fit (160 pages left): %v", grants)
	}
}

func TestMaxSkipsOversizedButServesSmaller(t *testing.T) {
	// ED order: the big query first. It doesn't fit, a smaller later one
	// does — Max admits as many max allocations as memory permits.
	present := []*query.Query{q(1, 10, 40, 3000), q(2, 20, 40, 1000)}
	grants := Max{}.Allocate(present, 2560, &Scratch{})
	if grants[0] != 0 || grants[1] != 1000 {
		t.Fatalf("grants %v", grants)
	}
}

func TestMinMaxTwoPass(t *testing.T) {
	present := []*query.Query{
		q(1, 10, 40, 1300), q(2, 20, 40, 1300), q(3, 30, 40, 1300),
	}
	grants := MinMaxN{}.Allocate(present, 2560, &Scratch{})
	checkInvariants(t, "MinMax", present, grants, 2560)
	// Pass 1 reserves 3×40 = 120; pass 2 tops q1 to 1300, then q2 gets
	// the rest: 2560−120−1260 = 1180 extra ⇒ 1220; q3 stays at min.
	if grants[0] != 1300 {
		t.Fatalf("most urgent should reach max: %v", grants)
	}
	if grants[1] != 1220 {
		t.Fatalf("second query should land between min and max: %v", grants)
	}
	if grants[2] != 40 {
		t.Fatalf("least urgent stays at min: %v", grants)
	}
}

func TestMinMaxNLimit(t *testing.T) {
	present := []*query.Query{
		q(1, 10, 40, 100), q(2, 20, 40, 100), q(3, 30, 40, 100), q(4, 40, 40, 100),
	}
	grants := MinMaxN{N: 2}.Allocate(present, 10_000, &Scratch{})
	checkInvariants(t, "MinMax-2", present, grants, 10_000)
	if grants[0] != 100 || grants[1] != 100 {
		t.Fatalf("admitted queries should reach max: %v", grants)
	}
	if grants[2] != 0 || grants[3] != 0 {
		t.Fatalf("MPL limit 2 violated: %v", grants)
	}
}

func TestMinMaxAdmissionByPriority(t *testing.T) {
	// Memory fits only one minimum: the most urgent wins.
	present := []*query.Query{q(1, 10, 60, 100), q(2, 20, 60, 100)}
	grants := MinMaxN{}.Allocate(present, 100, &Scratch{})
	if grants[0] != 100 || grants[1] != 0 {
		t.Fatalf("grants %v", grants)
	}
}

func TestProportionalEqualFractions(t *testing.T) {
	present := []*query.Query{
		q(1, 10, 10, 1000), q(2, 20, 10, 500),
	}
	grants := ProportionalN{}.Allocate(present, 750, &Scratch{})
	checkInvariants(t, "Proportional", present, grants, 750)
	// φ = 0.5: 500 and 250.
	f0 := float64(grants[0]) / 1000
	f1 := float64(grants[1]) / 500
	if f0 < 0.45 || f0 > 0.55 || f1 < 0.45 || f1 > 0.55 {
		t.Fatalf("fractions differ: %v (%.2f vs %.2f)", grants, f0, f1)
	}
}

func TestProportionalFloorsAtMinimum(t *testing.T) {
	present := []*query.Query{
		q(1, 10, 200, 1000), // φ·1000 < 200 would violate the floor
		q(2, 20, 10, 2000),
	}
	grants := ProportionalN{}.Allocate(present, 400, &Scratch{})
	checkInvariants(t, "Proportional", present, grants, 400)
	if grants[0] < 200 {
		t.Fatalf("minimum floor violated: %v", grants)
	}
}

func TestProportionalFullFit(t *testing.T) {
	present := []*query.Query{q(1, 10, 10, 100), q(2, 20, 10, 100)}
	grants := ProportionalN{}.Allocate(present, 1000, &Scratch{})
	if grants[0] != 100 || grants[1] != 100 {
		t.Fatalf("abundant memory should give everyone max: %v", grants)
	}
}

func TestSortByPriority(t *testing.T) {
	qs := []*query.Query{q(3, 30, 1, 1), q(1, 10, 1, 1), q(2, 20, 1, 1), q(4, 10, 1, 1)}
	SortByPriority(qs)
	// Deadline order; ties by id.
	wantIDs := []int64{1, 4, 2, 3}
	for i, w := range wantIDs {
		if qs[i].ID != w {
			t.Fatalf("order %v", qs)
		}
	}
}

func TestAllocatorsProperty(t *testing.T) {
	allocs := []Allocator{Max{}, MinMaxN{}, MinMaxN{N: 3}, ProportionalN{}, ProportionalN{N: 2}}
	var scratch Scratch // shared by every call, as the controller shares one across replans
	f := func(seeds []uint16, totalSeed uint16) bool {
		total := int(totalSeed%5000) + 100
		var present []*query.Query
		for i, s := range seeds {
			if i >= 30 {
				break
			}
			min := int(s%50) + 2
			max := min + int(s%2000)
			present = append(present, q(int64(i+1), float64(s%300), min, max))
		}
		SortByPriority(present)
		for _, a := range allocs {
			grants := a.Allocate(present, total, &scratch)
			if len(grants) != len(present) {
				return false
			}
			sum := 0
			for i, g := range grants {
				if g != 0 && (g < present[i].MinMem || g > present[i].MaxMem) {
					return false
				}
				sum += g
			}
			if sum > total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Allocator{
		"Max":            Max{},
		"MinMax":         MinMaxN{},
		"MinMax-7":       MinMaxN{N: 7},
		"Proportional":   ProportionalN{},
		"Proportional-3": ProportionalN{N: 3},
	}
	for want, a := range cases {
		if a.Name() != want {
			t.Errorf("Name() = %q, want %q", a.Name(), want)
		}
	}
}

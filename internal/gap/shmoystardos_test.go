package gap

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mecache/internal/matching"
	"mecache/internal/rng"
)

// randomRoundingInstance builds a dense random GAP instance small enough
// for the LP relaxation. Its capacities may leave it infeasible.
func randomRoundingInstance(r *rng.Source, n, m int) *Instance {
	ins := &Instance{
		Cost:   make([][]float64, n),
		Weight: make([][]float64, n),
		Cap:    make([]float64, m),
	}
	for j := 0; j < n; j++ {
		ins.Cost[j] = make([]float64, m)
		ins.Weight[j] = make([]float64, m)
		for i := 0; i < m; i++ {
			ins.Cost[j][i] = r.FloatRange(0.5, 4)
			ins.Weight[j][i] = r.FloatRange(0.2, 1.2)
		}
	}
	for i := range ins.Cap {
		ins.Cap[i] = r.FloatRange(1.5, 4)
	}
	return ins
}

// globalMatching is the reference rounding step: one min-cost matching of
// every item against every slot.
func globalMatching(ins *Instance, slots []slot) ([]int, error) {
	costM := make([][]float64, ins.NumItems())
	for j := range costM {
		costM[j] = make([]float64, len(slots))
		for s := range costM[j] {
			costM[j][s] = matching.Forbidden
		}
	}
	for s, sl := range slots {
		for _, j := range sl.items {
			costM[j][s] = ins.Cost[j][sl.bin]
		}
	}
	assign, _, err := matching.MinCostAssignment(costM)
	if err != nil {
		return nil, err
	}
	bin := make([]int, len(assign))
	for j, s := range assign {
		bin[j] = slots[s].bin
	}
	return bin, nil
}

// checkAgainstGlobal solves ins and checks the per-component rounding
// against one global matching of the same slot graph. It reports whether
// the LP was feasible and how many components the slot graph has.
func checkAgainstGlobal(t *testing.T, ins *Instance, label string) (bool, int) {
	t.Helper()
	x, _, err := lpRelaxation(ins)
	if err != nil {
		return false, 0 // infeasible draw: nothing to round
	}
	slots := slotGraph(ins, x)
	want, werr := globalMatching(ins, slots)
	got, gerr := matchComponents(ins, slots)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: error mismatch global=%v components=%v", label, werr, gerr)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: bins diverge\nglobal     %v\ncomponents %v", label, want, got)
	}
	return true, components(ins, slots)
}

// TestShmoysTardosWarmMatchesCold walks one instance through a sequence of
// single-item cost changes. The rounding keeps no state between solves, so
// at every step a repeated solve must reproduce the first one bit for bit
// and the per-component matching must equal the global one.
func TestShmoysTardosWarmMatchesCold(t *testing.T) {
	r := rng.New(53)
	ins := randomRoundingInstance(r, 14, 5)
	for round := 0; round < 20; round++ {
		first, err := SolveShmoysTardos(ins)
		if err != nil {
			t.Fatal(err)
		}
		again, err := SolveShmoysTardos(ins)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Bin, again.Bin) {
			t.Fatalf("round %d: repeated solve diverges\nfirst %v\nagain %v", round, first.Bin, again.Bin)
		}
		if math.Float64bits(first.Cost) != math.Float64bits(again.Cost) {
			t.Fatalf("round %d: cost %v != %v", round, again.Cost, first.Cost)
		}
		if ok, _ := checkAgainstGlobal(t, ins, fmt.Sprintf("round %d", round)); !ok {
			t.Fatalf("round %d: LP infeasible", round)
		}
		j := r.Intn(len(ins.Cost))
		for i := range ins.Cost[j] {
			ins.Cost[j][i] = r.FloatRange(0.5, 4)
		}
	}
}

// TestShmoysTardosComponentReuse pins component independence: on two
// disconnected halves, changing a cost in one half leaves the other half's
// bins as they were, and each solve equals the global matching.
func TestShmoysTardosComponentReuse(t *testing.T) {
	// Items 0-1 can only use bins 0-1, items 2-3 only bins 2-3.
	mk := func(c0 float64) *Instance {
		F := math.Inf(1)
		return &Instance{
			Cost: [][]float64{
				{c0, 2, F, F},
				{2, 1, F, F},
				{F, F, 1, 2},
				{F, F, 2, 1},
			},
			Weight: [][]float64{
				{1, 1, 1, 1},
				{1, 1, 1, 1},
				{1, 1, 1, 1},
				{1, 1, 1, 1},
			},
			Cap: []float64{1, 1, 1, 1},
		}
	}
	before, err := SolveShmoysTardos(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	ins := mk(1.5)
	after, err := SolveShmoysTardos(ins)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Bin[2:], after.Bin[2:]) {
		t.Fatalf("untouched half moved: before %v after %v", before.Bin, after.Bin)
	}
	if ok, comps := checkAgainstGlobal(t, ins, "halves"); !ok || comps < 2 {
		t.Fatalf("feasible=%v components=%d, want a feasible instance with at least 2", ok, comps)
	}
}

// TestShmoysTardosWarmFuzzDifferential runs random instances through
// single-item cost changes and checks the per-component matching against
// the global one at every step.
func TestShmoysTardosWarmFuzzDifferential(t *testing.T) {
	r := rng.New(71)
	checked, split := 0, 0
	for trial := 0; trial < 15; trial++ {
		n, m := r.IntRange(4, 12), r.IntRange(2, 5)
		ins := randomRoundingInstance(r, n, m)
		for round := 0; round < 6; round++ {
			ok, comps := checkAgainstGlobal(t, ins, fmt.Sprintf("trial %d round %d", trial, round))
			if ok {
				checked++
				if comps > 1 {
					split++
				}
			}
			j := r.Intn(n)
			for i := 0; i < m; i++ {
				ins.Cost[j][i] = r.FloatRange(0.5, 4)
			}
		}
	}
	if checked < 20 || split < 2 {
		t.Fatalf("%d feasible instances, %d split into several components; the check is too weak", checked, split)
	}
}

// components counts the connected components of the item-slot graph.
func components(ins *Instance, slots []slot) int {
	seen := make([]bool, ins.NumItems())
	adj := make([][]int, ins.NumItems())
	for _, sl := range slots {
		for _, j := range sl.items {
			adj[j] = append(adj[j], sl.items...)
		}
	}
	count := 0
	for j := range seen {
		if seen[j] {
			continue
		}
		count++
		stack := []int{j}
		seen[j] = true
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, b := range adj[a] {
				if !seen[b] {
					seen[b] = true
					stack = append(stack, b)
				}
			}
		}
	}
	return count
}

package gap

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLocalSearchImprovesBadStart(t *testing.T) {
	// Two items parked in expensive bins; shifts fix it.
	ins := &Instance{
		Cost:   [][]float64{{1, 10}, {10, 1}},
		Weight: [][]float64{{1, 1}, {1, 1}},
		Cap:    []float64{2, 2},
	}
	sol, err := LocalSearch(ins, []int{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 2 {
		t.Fatalf("cost %v, want 2 (bins %v)", sol.Cost, sol.Bin)
	}
}

func TestLocalSearchSwapNeeded(t *testing.T) {
	// Tight capacities: no single shift fits, only the swap does.
	ins := &Instance{
		Cost:   [][]float64{{1, 10}, {10, 1}},
		Weight: [][]float64{{1, 1}, {1, 1}},
		Cap:    []float64{1, 1},
	}
	sol, err := LocalSearch(ins, []int{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 2 || sol.Bin[0] != 0 || sol.Bin[1] != 1 {
		t.Fatalf("swap not applied: %v cost %v", sol.Bin, sol.Cost)
	}
}

func TestLocalSearchRejectsInfeasibleStart(t *testing.T) {
	ins := &Instance{
		Cost:   [][]float64{{1, 1}, {1, 1}},
		Weight: [][]float64{{2, 2}, {2, 2}},
		Cap:    []float64{2, 2},
	}
	if _, err := LocalSearch(ins, []int{0, 0}, 0); err == nil {
		t.Fatal("overloaded start accepted")
	}
}

// Property: local search never worsens cost, never violates capacity, and
// ends shift-stable (no single relocation improves).
func TestLocalSearchInvariants(t *testing.T) {
	check := func(seed uint64) bool {
		ins := randomInstance(seed, 8, 4)
		start, err := SolveGreedy(ins)
		if err != nil {
			return true // tight instance, greedy failed: nothing to test
		}
		sol, err := LocalSearch(ins, start.Bin, 0)
		if err != nil {
			return false
		}
		if sol.Cost > start.Cost+1e-9 {
			return false
		}
		if ins.CheckFeasible(sol.Bin, 0) != nil {
			return false
		}
		// Shift stability.
		remaining := append([]float64(nil), ins.Cap...)
		for j, i := range sol.Bin {
			remaining[i] -= ins.Weight[j][i]
		}
		for j, from := range sol.Bin {
			for to := range ins.Cap {
				if to == from || math.IsInf(ins.Cost[j][to], 1) {
					continue
				}
				if ins.Weight[j][to] <= remaining[to]+1e-12 &&
					ins.Cost[j][to] < ins.Cost[j][from]-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, quickConfig(60, 7)); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPolishedAtLeastAsGoodAsGreedy(t *testing.T) {
	check := func(seed uint64) bool {
		ins := randomInstance(seed, 10, 4)
		g, err := SolveGreedy(ins)
		if err != nil {
			return true
		}
		p, err := SolveGreedyPolished(ins)
		if err != nil {
			return false
		}
		return p.Cost <= g.Cost+1e-9
	}
	if err := quick.Check(check, quickConfig(60, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestPolishedApproachesExact(t *testing.T) {
	// On small instances the polished heuristic should land within 20% of
	// the exact optimum on average.
	var exactSum, polishedSum float64
	count := 0
	for seed := uint64(0); seed < 25; seed++ {
		ins := randomInstance(seed, 7, 3)
		ex, err := SolveExact(ins)
		if err != nil {
			continue
		}
		po, err := SolveGreedyPolished(ins)
		if err != nil {
			continue
		}
		exactSum += ex.Cost
		polishedSum += po.Cost
		count++
	}
	if count < 10 {
		t.Fatalf("too few comparable instances: %d", count)
	}
	if polishedSum > exactSum*1.2 {
		t.Fatalf("polished heuristic averages %v vs exact %v", polishedSum/float64(count), exactSum/float64(count))
	}
}

func BenchmarkLocalSearch50x10(b *testing.B) {
	ins := randomInstance(5, 50, 10)
	start, err := SolveGreedy(ins)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LocalSearch(ins, start.Bin, 0); err != nil {
			b.Fatal(err)
		}
	}
}

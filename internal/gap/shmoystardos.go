package gap

import (
	"fmt"
	"math"
	"sort"

	"mecache/internal/lp"
	"mecache/internal/matching"
)

// lpRelaxation builds and solves the GAP LP relaxation:
//
//	min  Σ c_ji x_ji
//	s.t. Σ_i x_ji = 1            for every item j
//	     Σ_j w_ji x_ji <= Cap_i  for every bin i
//	     x >= 0, forbidden/oversized pairs excluded
//
// It returns the fractional solution as x[j][i] plus the LP objective.
func lpRelaxation(ins *Instance) ([][]float64, float64, error) {
	n, m := ins.NumItems(), ins.NumBins()
	cost := ins.pruneOversized()

	// Compact variable indexing over permitted pairs.
	varIdx := make([][]int, n)
	numVars := 0
	for j := 0; j < n; j++ {
		varIdx[j] = make([]int, m)
		for i := 0; i < m; i++ {
			if math.IsInf(cost[j][i], 1) {
				varIdx[j][i] = -1
			} else {
				varIdx[j][i] = numVars
				numVars++
			}
		}
	}
	if numVars == 0 {
		return nil, 0, fmt.Errorf("gap: no permitted item-bin pairs")
	}

	p := lp.NewProblem(numVars)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if v := varIdx[j][i]; v >= 0 {
				if err := p.SetObjectiveCoeff(v, cost[j][i]); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	for j := 0; j < n; j++ {
		var idx []int
		var val []float64
		for i := 0; i < m; i++ {
			if v := varIdx[j][i]; v >= 0 {
				idx = append(idx, v)
				val = append(val, 1)
			}
		}
		if len(idx) == 0 {
			return nil, 0, fmt.Errorf("gap: item %d fits no bin", j)
		}
		if err := p.AddSparseConstraint(idx, val, lp.EQ, 1); err != nil {
			return nil, 0, err
		}
	}
	for i := 0; i < m; i++ {
		var idx []int
		var val []float64
		for j := 0; j < n; j++ {
			if v := varIdx[j][i]; v >= 0 {
				idx = append(idx, v)
				val = append(val, ins.Weight[j][i])
			}
		}
		if len(idx) == 0 {
			continue
		}
		if err := p.AddSparseConstraint(idx, val, lp.LE, ins.Cap[i]); err != nil {
			return nil, 0, err
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, 0, fmt.Errorf("gap: LP relaxation: %w", err)
	}
	x := make([][]float64, n)
	for j := 0; j < n; j++ {
		x[j] = make([]float64, m)
		for i := 0; i < m; i++ {
			if v := varIdx[j][i]; v >= 0 {
				x[j][i] = sol.X[v]
			}
		}
	}
	return x, sol.Objective, nil
}

// LPLowerBound returns the optimum of the GAP LP relaxation, a lower bound
// on the integral optimum.
func LPLowerBound(ins *Instance) (float64, error) {
	if err := ins.Validate(); err != nil {
		return 0, err
	}
	_, obj, err := lpRelaxation(ins)
	return obj, err
}

// slot is one capacity slot of a bin in the Shmoys-Tardos rounding graph.
type slot struct {
	bin   int
	items []int // items with positive fraction in this slot
}

// SolveShmoysTardos runs the Shmoys-Tardos LP-rounding approximation [34].
// The returned assignment has cost at most the LP optimum (hence at most
// the integral optimum) and loads each bin by at most Cap_i plus the
// largest single item weight placed there — the classical additive
// guarantee behind the paper's 2·δ·κ ratio for Appro.
func SolveShmoysTardos(ins *Instance) (*Assignment, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	x, _, err := lpRelaxation(ins)
	if err != nil {
		return nil, err
	}
	bin, err := matchComponents(ins, slotGraph(ins, x))
	if err != nil {
		// Floating-point noise in the LP can, in principle, break Hall's
		// condition on the slot graph; fall back to the greedy heuristic
		// rather than failing the whole pipeline.
		greedy, gerr := SolveGreedy(ins)
		if gerr != nil {
			return nil, fmt.Errorf("gap: rounding matching failed (%v) and greedy fallback failed: %w", err, gerr)
		}
		return greedy, nil
	}
	total, err := ins.CostOf(bin)
	if err != nil {
		return nil, err
	}
	return &Assignment{Bin: bin, Cost: total}, nil
}

// slotGraph builds the rounding graph of the fractional solution x: bin i
// is split into ceil(Σ_j x_ji) slots; items fractionally assigned to the
// bin are poured into slots in order of decreasing weight, splitting items
// across slot boundaries.
func slotGraph(ins *Instance, x [][]float64) []slot {
	n, m := ins.NumItems(), ins.NumBins()
	const tiny = 1e-9
	var slots []slot
	for i := 0; i < m; i++ {
		type frac struct {
			item int
			x    float64
		}
		var fr []frac
		total := 0.0
		for j := 0; j < n; j++ {
			if x[j][i] > tiny {
				fr = append(fr, frac{item: j, x: x[j][i]})
				total += x[j][i]
			}
		}
		if len(fr) == 0 {
			continue
		}
		sort.Slice(fr, func(a, b int) bool {
			wa, wb := ins.Weight[fr[a].item][i], ins.Weight[fr[b].item][i]
			if wa != wb {
				return wa > wb
			}
			return fr[a].item < fr[b].item
		})
		k := int(math.Ceil(total - tiny))
		if k < 1 {
			k = 1
		}
		binSlots := make([]slot, k)
		for s := range binSlots {
			binSlots[s].bin = i
		}
		cum := 0.0
		for _, f := range fr {
			lo := cum
			cum += f.x
			// The item spans slots floor(lo) .. min(k-1, floor(cum)).
			s0 := int(lo + tiny)
			s1 := int(cum - tiny)
			if s1 >= k {
				s1 = k - 1
			}
			for s := s0; s <= s1; s++ {
				binSlots[s].items = append(binSlots[s].items, f.item)
			}
		}
		slots = append(slots, binSlots...)
	}
	return slots
}

// matchComponents computes the min-cost perfect matching of items to
// slots and returns each item's bin. The matching runs per connected
// component of the item-slot graph: the Jonker-Volgenant search never
// leaves the component of the row it augments (every dual, tree, and
// matching cell it reads or writes is column- or row-local to that
// component, except the write-only sentinel column), so the union of
// per-component matchings equals the global matching while each search
// runs on a matrix only as large as its component.
func matchComponents(ins *Instance, slots []slot) ([]int, error) {
	n := ins.NumItems()
	// Components are found by union-find over items (slots tie their items
	// together), with the smaller root winning so a component's
	// representative is its smallest item index.
	parent := make([]int, n)
	for j := range parent {
		parent[j] = j
	}
	find := func(a int) int {
		for parent[a] != a {
			parent[a] = parent[parent[a]]
			a = parent[a]
		}
		return a
	}
	for _, sl := range slots {
		for t := 1; t < len(sl.items); t++ {
			ra, rb := find(sl.items[0]), find(sl.items[t])
			if ra != rb {
				if rb < ra {
					ra, rb = rb, ra
				}
				parent[rb] = ra
			}
		}
	}
	type component struct {
		items []int // ascending
		slots []int // indices into slots, ascending (global slot order)
	}
	var comps []component
	compOf := make(map[int]int) // representative item -> comps index
	for j := 0; j < n; j++ {
		r := find(j)
		ci, ok := compOf[r]
		if !ok {
			ci = len(comps)
			compOf[r] = ci
			comps = append(comps, component{})
		}
		comps[ci].items = append(comps[ci].items, j)
	}
	for s, sl := range slots {
		ci := compOf[find(sl.items[0])]
		comps[ci].slots = append(comps[ci].slots, s)
	}

	bin := make([]int, n)
	rowOf := make([]int, n) // item -> row index within its component matrix
	for _, c := range comps {
		for r, j := range c.items {
			rowOf[j] = r
		}
		costM := make([][]float64, len(c.items))
		for r := range costM {
			costM[r] = make([]float64, len(c.slots))
			for s := range costM[r] {
				costM[r][s] = matching.Forbidden
			}
		}
		for si, s := range c.slots {
			sl := slots[s]
			for _, j := range sl.items {
				costM[rowOf[j]][si] = ins.Cost[j][sl.bin]
			}
		}
		assign, _, err := matching.MinCostAssignment(costM)
		if err != nil {
			return nil, err
		}
		for r, j := range c.items {
			bin[j] = slots[c.slots[assign[r]]].bin
		}
	}
	return bin, nil
}
